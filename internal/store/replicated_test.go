package store

import (
	"errors"
	"fmt"
	"testing"
)

// mirrorSink plays the standby's half of the mirror contract: it applies
// shipped records to its own slice, skipping overlap like the real standby,
// and can be scripted to fail or report a gap.
type mirrorSink struct {
	recs  []*Record
	calls int
	// failNext, when set, makes the next call return this error once.
	failNext error
}

func (m *mirrorSink) fn(start int, recs []*Record) (int, error) {
	m.calls++
	if m.failNext != nil {
		err := m.failNext
		m.failNext = nil
		return 0, err
	}
	if start > len(m.recs) {
		return 0, &MirrorGapError{StandbyLen: len(m.recs)}
	}
	skip := len(m.recs) - start
	if skip < len(recs) {
		m.recs = append(m.recs, recs[skip:]...)
	}
	return len(m.recs), nil
}

func rec(i int) *Record {
	return &Record{Kind: 1, Epoch: 0, Payload: []byte(fmt.Sprintf("r%d", i))}
}

func TestReplicatedLogAppendMirrorsBeforeAck(t *testing.T) {
	sink := &mirrorSink{}
	l, err := NewReplicatedLog(NewMemLog(), sink.fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		if got := l.Len(); got != i+1 {
			t.Fatalf("after append %d: acked %d, want %d", i, got, i+1)
		}
	}
	if len(sink.recs) != 3 {
		t.Fatalf("standby holds %d records, want 3", len(sink.recs))
	}
}

func TestReplicatedLogMirrorFailureBlocksAck(t *testing.T) {
	sink := &mirrorSink{}
	inner := NewMemLog()
	l, err := NewReplicatedLog(inner, sink.fn)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("standby down")
	sink.failNext = boom
	if err := l.Append(rec(0)); !errors.Is(err, boom) {
		t.Fatalf("append with a dead mirror returned %v, want the mirror error", err)
	}
	if l.Len() != 0 {
		t.Fatal("a failed mirror must not advance the acked prefix")
	}
	if inner.Len() != 1 {
		t.Fatal("the record should still be in the local log")
	}
	// Snapshot exposes only the mirrored prefix: nothing yet.
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 0 {
		t.Fatalf("snapshot exposes %d unacked records", len(snap))
	}
	// The standby comes back; the next append flushes the backlog too.
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 || len(sink.recs) != 2 {
		t.Fatalf("acked=%d standby=%d after recovery, want 2/2", l.Len(), len(sink.recs))
	}
}

func TestReplicatedLogGroupCommit(t *testing.T) {
	sink := &mirrorSink{}
	l, err := NewReplicatedLog(NewMemLog(), sink.fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.AppendNoSync(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.calls != 0 {
		t.Fatalf("AppendNoSync mirrored eagerly (%d calls), want 0 before Sync", sink.calls)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if sink.calls != 1 {
		t.Fatalf("Sync made %d mirror calls, want the whole batch in 1", sink.calls)
	}
	if l.Len() != 4 || len(sink.recs) != 4 {
		t.Fatalf("acked=%d standby=%d, want 4/4", l.Len(), len(sink.recs))
	}
}

func TestReplicatedLogBootCatchUp(t *testing.T) {
	// A primary restarting over a non-empty log: everything counts as
	// unmirrored until the first flush confirms it, and the standby skipping
	// overlap makes the re-ship idempotent.
	inner := NewMemLog()
	for i := 0; i < 3; i++ {
		if err := inner.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	sink := &mirrorSink{recs: []*Record{rec(0), rec(1)}} // standby already has 2
	l, err := NewReplicatedLog(inner, sink.fn)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 || inner.Len() != 3 {
		t.Fatalf("boot state acked=%d len=%d, want 0/3", l.Len(), inner.Len())
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 || len(sink.recs) != 3 {
		t.Fatalf("after catch-up acked=%d standby=%d, want 3/3", l.Len(), len(sink.recs))
	}
}

func TestReplicatedLogGapRewind(t *testing.T) {
	sink := &mirrorSink{}
	l, err := NewReplicatedLog(NewMemLog(), sink.fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The standby loses its tail (torn write on restart): it now holds 1
	// record while the primary believes 3 are mirrored.
	sink.recs = sink.recs[:1]
	sink.failNext = &MirrorGapError{StandbyLen: 1}
	if err := l.Append(rec(3)); err != nil {
		t.Fatalf("gap rewind should recover transparently, got %v", err)
	}
	if l.Len() != 4 || len(sink.recs) != 4 {
		t.Fatalf("after rewind acked=%d standby=%d, want 4/4", l.Len(), len(sink.recs))
	}
	for i, r := range sink.recs {
		if string(r.Payload) != fmt.Sprintf("r%d", i) {
			t.Fatalf("standby record %d is %q after rewind", i, r.Payload)
		}
	}
}

func TestReplicatedLogShortAckFails(t *testing.T) {
	// A standby that confirms fewer records than were shipped (a desynced
	// ack) must fail the flush rather than silently over-advance.
	short := func(start int, recs []*Record) (int, error) {
		return start, nil // confirms nothing new
	}
	l, err := NewReplicatedLog(NewMemLog(), short)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(0)); err == nil {
		t.Fatal("short mirror ack should fail the append")
	}
	if l.Len() != 0 {
		t.Fatal("short ack must not advance the acked prefix")
	}
}

// TestReplicatedLogReadFromStopsAtMirroredPrefix: a reader of a replicated
// log sees only what the standby confirmed — ReadFrom stops at the mirrored
// prefix, before and after the reader attached — while Replay, the
// session's recovery read, sees the full local log.
func TestReplicatedLogReadFromStopsAtMirroredPrefix(t *testing.T) {
	sink := &mirrorSink{}
	l, err := NewReplicatedLog(NewMemLog(), sink.fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	sink.failNext = errors.New("standby down")
	if err := l.Append(rec(3)); err == nil {
		t.Fatal("append with a dead mirror succeeded")
	}
	if l.Len() != 3 {
		t.Fatalf("mirrored prefix holds %d records, want 3", l.Len())
	}
	tl, err := l.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	for i := 1; i < 3; i++ {
		got, _, err := tl.Next()
		if err != nil || string(got.Payload) != fmt.Sprintf("r%d", i) {
			t.Fatalf("record %d: %v, %v", i, got, err)
		}
	}
	if _, _, err := tl.Next(); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("read past the mirrored prefix: %v, want ErrNoRecord", err)
	}
	if _, err := l.ReadFrom(4); err == nil {
		t.Fatal("ReadFrom past the mirrored prefix succeeded")
	}
	n := 0
	if err := l.Replay(func(*Record) error { n++; return nil }); err != nil || n != 4 {
		t.Fatalf("replay saw %d records (err %v), want the 4 local ones", n, err)
	}
	// The standby returns: the next flush publishes record 3 to the reader.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := tl.Next(); err != nil || string(got.Payload) != "r3" {
		t.Fatalf("record 3 after the flush: %v, %v", got, err)
	}
}
