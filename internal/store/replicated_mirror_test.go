package store

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplicatedLogRewindsToBehindStandby pins the restarted-standby
// contract: a standby that comes back behind the acked count makes the next
// flush observe the gap, rewind once, and re-ship it to parity. Replay and
// Close pass through to the inner log untouched by the acked prefix.
func TestReplicatedLogRewindsToBehindStandby(t *testing.T) {
	inner := NewMemLog()
	old := &mirrorSink{}
	standby := old
	l, err := NewReplicatedLog(inner, func(start int, recs []*Record) (int, error) {
		return standby.fn(start, recs)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("acked = %d, want 3", l.Len())
	}

	// The standby restarted behind: it holds only record 0.
	repl := &mirrorSink{recs: old.recs[:1]}
	standby = repl
	if err := l.Append(rec(3)); err != nil {
		t.Fatalf("append after the standby restarted: %v", err)
	}
	if len(repl.recs) != 4 {
		t.Fatalf("replacement mirror holds %d records, want 4", len(repl.recs))
	}
	if l.Len() != 4 {
		t.Fatalf("acked after rewind = %d, want 4", l.Len())
	}

	// Replay spans the full local log, not just the acked prefix.
	n := 0
	if err := l.Replay(func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replay saw %d records, want 4", n)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inner.Append(rec(9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("inner log still open after Close: err = %v", err)
	}
}

func TestMirrorGapErrorMessage(t *testing.T) {
	e := &MirrorGapError{StandbyLen: 2}
	if !strings.Contains(e.Error(), "holds 2 records") {
		t.Fatalf("gap error message %q does not name the standby length", e.Error())
	}
}

// TestFaultLogReadsUnaffected pins that a FaultLog only sabotages appends:
// Snapshot and Replay keep serving the committed records before and after the
// trip, and Close still releases the file handle.
func TestFaultLogReadsUnaffected(t *testing.T) {
	inner, err := OpenFileLog(filepath.Join(t.TempDir(), "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaultLog(inner, FaultFail, 1)
	if err := f.Append(rec(0)); err != nil {
		t.Fatalf("pre-trip append: %v", err)
	}
	if err := f.Append(rec(1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("trip append err = %v, want ErrInjected", err)
	}
	snap, err := f.Snapshot()
	if err != nil || len(snap) != 1 {
		t.Fatalf("snapshot after trip: %d records, err %v; want 1, nil", len(snap), err)
	}
	n := 0
	if err := f.Replay(func(*Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("replay after trip saw %d records, err %v; want 1, nil", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after trip: %v", err)
	}
}
