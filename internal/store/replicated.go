package store

import (
	"fmt"
	"sync"
)

// ReplicatedLog mirrors an inner Log to a standby before records are
// acknowledged: every Append (and every Sync after AppendNoSync group
// commits) first lands in the inner log and then ships the not-yet-mirrored
// suffix through a MirrorFunc. Only when the standby has confirmed the
// records does the call return — so a verdict a primary acks is always
// reconstructible from the standby, which is exactly the fencing invariant a
// failover promotion relies on.
//
// Len, ReadFrom and Snapshot deliberately expose only the mirrored (acked)
// prefix: external readers — audit fetches, tail followers, the promotion
// fence — must never observe a record the standby could be missing, or a
// failover would look like rewritten history. Replay exposes the full local
// log (it is the session's own recovery surface; records a restarted
// primary holds beyond the mirror are pushed to the standby by the next
// flush).
type ReplicatedLog struct {
	mu     sync.Mutex
	inner  Log
	mirror MirrorFunc
	acked  int // standby-confirmed prefix
}

// MirrorFunc ships records [start, start+len(recs)) to the standby and
// returns the standby's resulting record count. Returning a *MirrorGapError
// reports that the standby holds fewer records than start — the caller
// rewinds and re-ships from the standby's actual length.
type MirrorFunc func(start int, recs []*Record) (int, error)

// MirrorGapError reports a standby that is behind where the primary believed
// the mirror stood; StandbyLen is the standby's actual record count.
type MirrorGapError struct{ StandbyLen int }

func (e *MirrorGapError) Error() string {
	return fmt.Sprintf("store: standby log holds %d records, behind the mirrored prefix", e.StandbyLen)
}

// NewReplicatedLog wraps inner. Existing records count as unmirrored until
// the first flush confirms them — a restarted primary re-ships (the standby
// skips what it already holds, so the catch-up is idempotent). The error
// is always nil.
func NewReplicatedLog(inner Log, mirror MirrorFunc) (*ReplicatedLog, error) {
	return &ReplicatedLog{inner: inner, mirror: mirror}, nil
}

// Flush mirrors every record the standby has not confirmed yet. Called at
// boot to catch a standby up, and by Append/Sync before acknowledging.
func (l *ReplicatedLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// Len implements Log: the standby-confirmed record count (the published
// prefix).
func (l *ReplicatedLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

// ReadFrom implements Log over the mirrored prefix: the tailer reports
// ErrNoRecord at the prefix's end, however far the local log runs past it.
func (l *ReplicatedLog) ReadFrom(index int) (Tailer, error) {
	if err := checkIndex(index, l.Len()); err != nil {
		return nil, err
	}
	t, err := l.inner.ReadFrom(index)
	if err != nil {
		return nil, err
	}
	return &prefixTailer{Tailer: t, log: l, idx: index}, nil
}

// prefixTailer stops a tail of the inner log at the mirrored prefix.
type prefixTailer struct {
	Tailer
	log *ReplicatedLog
	idx int
}

func (t *prefixTailer) Next() (*Record, int64, error) {
	if t.idx >= t.log.Len() {
		return nil, 0, ErrNoRecord
	}
	rec, off, err := t.Tailer.Next()
	if err == nil {
		t.idx++
	}
	return rec, off, err
}

// flushLocked ships records [acked, inner.Len()) to the standby, read back
// from the inner log.
func (l *ReplicatedLog) flushLocked() error {
	rewound := false
	for total := l.inner.Len(); l.acked < total; {
		recs, err := readRange(l.inner, l.acked, total)
		if err != nil {
			return err
		}
		n, err := l.mirror(l.acked, recs)
		if err == nil {
			if n < total {
				return fmt.Errorf("store: standby confirmed %d records, %d were mirrored", n, total)
			}
			l.acked = total
			return nil
		}
		if gap, ok := err.(*MirrorGapError); ok && !rewound && gap.StandbyLen < l.acked && gap.StandbyLen >= 0 {
			// The standby restarted behind our mirror point (its own torn
			// tail, say): rewind once and re-ship from where it really is.
			rewound = true
			l.acked = gap.StandbyLen
			continue
		}
		return err
	}
	return nil
}

// readRange reads records [from, to) of l.
func readRange(l Log, from, to int) ([]*Record, error) {
	t, err := l.ReadFrom(from)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	recs := make([]*Record, 0, to-from)
	for len(recs) < to-from {
		rec, _, err := t.Next()
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// Append implements BoardLog: the record lands in the inner log, then the
// unmirrored suffix is flushed to the standby before returning.
func (l *ReplicatedLog) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.inner.Append(rec); err != nil {
		return err
	}
	return l.flushLocked()
}

// AppendNoSync implements BoardLog: the record is written unsynced and not
// mirrored yet; the Sync that ends the commit window ships the whole batch
// in one mirror call.
func (l *ReplicatedLog) AppendNoSync(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.AppendNoSync(rec)
}

// Sync implements BoardLog: the inner log is made durable first, then the
// batch is mirrored. Records are never acknowledged to the standby before
// they are stable locally.
func (l *ReplicatedLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.inner.Sync(); err != nil {
		return err
	}
	return l.flushLocked()
}

// Snapshot implements BoardLog, returning only the mirrored prefix (see the
// type comment).
func (l *ReplicatedLog) Snapshot() ([]*Record, error) { return readRange(l.inner, 0, l.Len()) }

// Replay implements BoardLog over the full local log.
func (l *ReplicatedLog) Replay(fn func(*Record) error) error { return l.inner.Replay(fn) }

// Close implements BoardLog.
func (l *ReplicatedLog) Close() error { return l.inner.Close() }
