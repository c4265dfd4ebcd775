package store

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// FaultKind selects how an injected fault manifests at the trip point.
type FaultKind uint8

const (
	// FaultFail returns an error with nothing written — the disk refused
	// the append outright.
	FaultFail FaultKind = iota
	// FaultShortWrite puts the first half of the framed record on disk and
	// then fails — the torn tail a crash mid-write leaves behind.
	FaultShortWrite
	// FaultTornAppend writes and syncs the whole record but still reports
	// failure — the crash-after-commit-before-ack window, where the caller
	// believes the record was lost and recovery finds it anyway.
	FaultTornAppend
)

// String names the fault kind for test output.
func (k FaultKind) String() string {
	switch k {
	case FaultFail:
		return "fail"
	case FaultShortWrite:
		return "short-write"
	case FaultTornAppend:
		return "torn-append"
	default:
		return fmt.Sprintf("fault-kind-%d", uint8(k))
	}
}

// ErrInjected marks an error produced by a FaultLog rather than the disk.
var ErrInjected = errors.New("store: injected fault")

// FaultLog is a FileLog that deterministically fails its Nth append —
// Append and AppendNoSync count alike — with the configured fault, modeling
// the process dying at that instant: after the trip every further write,
// Sync included, fails too (a dead process issues no more writes). Reads and
// Close pass through to the file untouched, so a test can release the
// handle and exercise recovery the honest way — reopen the file with
// OpenFileLog and resume.
type FaultLog struct {
	*FileLog
	mu      sync.Mutex
	kind    FaultKind
	trip    int // 0-based append index that faults
	seen    int
	tripped bool
}

// NewFaultLog wraps inner so that the trip-th Append (0-based) fails with
// the given fault kind.
func NewFaultLog(inner *FileLog, kind FaultKind, trip int) *FaultLog {
	return &FaultLog{FileLog: inner, kind: kind, trip: trip}
}

// FaultFromSeed derives a deterministic (kind, trip) plan from a seed, so a
// test matrix can sweep seeds instead of enumerating pairs by hand. trip is
// always < maxTrip.
func FaultFromSeed(seed uint64, maxTrip int) (FaultKind, int) {
	// splitmix64 finalizer: spreads consecutive seeds across the plan space.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if maxTrip < 1 {
		maxTrip = 1
	}
	return FaultKind(z % 3), int((z / 3) % uint64(maxTrip))
}

// Tripped reports whether the injected fault has fired.
func (l *FaultLog) Tripped() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tripped
}

// Append implements BoardLog, faulting at the configured trip point.
func (l *FaultLog) Append(rec *Record) error { return l.append(rec, l.FileLog.Append) }

// AppendNoSync implements BoardLog, faulting on the same counter as Append.
func (l *FaultLog) AppendNoSync(rec *Record) error { return l.append(rec, l.FileLog.AppendNoSync) }

func (l *FaultLog) append(rec *Record, write func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tripped {
		return fmt.Errorf("store: log is dead after an %s fault: %w", l.kind, ErrInjected)
	}
	if l.seen == l.trip {
		l.tripped = true
		switch l.kind {
		case FaultShortWrite:
			enc := EncodeRecord(rec)
			if err := l.FileLog.writeRaw(enc[:len(enc)/2]); err != nil {
				return err
			}
		case FaultTornAppend:
			if err := l.FileLog.Append(rec); err != nil {
				return err
			}
		}
		return fmt.Errorf("store: append %d: %s: %w", l.trip, l.kind, ErrInjected)
	}
	l.seen++
	return write(rec)
}

// Sync implements BoardLog: it flushes the inner log until the trip and
// fails after it.
func (l *FaultLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tripped {
		return fmt.Errorf("store: log is dead after an %s fault: %w", l.kind, ErrInjected)
	}
	return l.FileLog.Sync()
}

// writeRaw appends bytes to the file without committing them: the log's
// size and record index are left alone, so the fragment sits past the committed
// offset exactly like a torn tail. The write is synced so the fragment is
// really on disk when recovery scans the file.
func (l *FileLog) writeRaw(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.readOnly {
		return fmt.Errorf("store: log was opened read-only for auditing")
	}
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("store: raw write: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: raw write sync: %w", err)
	}
	// Park the handle back at the committed offset: the fragment stays on
	// disk, but an (illegal, post-fault) append would not extend it.
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.broken = true
	}
	return nil
}
