package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSegmentedLogLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "seg")
	s, err := OpenSegmentedLog(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got != 3 {
		t.Fatalf("Shards() = %d, want 3", got)
	}
	if !s.Empty() {
		t.Error("fresh segmented log is not Empty")
	}
	if err := s.Segment(1).Append(&Record{Kind: 1, Epoch: 0, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if s.Empty() {
		t.Error("segmented log with a segment record reports Empty")
	}
	if err := s.Manifest().Append(&Record{Kind: 7, Epoch: 0, Payload: []byte("seal")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen adopting the recorded count; explicit matching count also works.
	s2, err := OpenSegmentedLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Shards(); got != 3 {
		t.Fatalf("reopened Shards() = %d, want 3", got)
	}
	if s2.Empty() {
		t.Error("reopened log with history reports Empty")
	}
	if got := s2.Segment(1).Len(); got != 1 {
		t.Errorf("segment 1 holds %d records, want 1", got)
	}
	s2.Close()

	// A different count is refused: the shard map is fixed at creation.
	if _, err := OpenSegmentedLog(dir, 5); err == nil {
		t.Error("shard-count mismatch accepted")
	}
}

func TestSegmentedLogReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "seg")
	s, err := OpenSegmentedLog(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Segment(0).Append(&Record{Kind: 1, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenSegmentedLogReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if got := ro.Shards(); got != 2 {
		t.Fatalf("read-only Shards() = %d, want 2", got)
	}
	if err := ro.Segment(0).Append(&Record{Kind: 1, Payload: []byte("b")}); err == nil {
		t.Error("append to read-only segment succeeded")
	}
	if err := ro.Manifest().Append(&Record{Kind: 7, Payload: []byte("b")}); err == nil {
		t.Error("append to read-only manifest succeeded")
	}
	n := 0
	if err := ro.Segment(0).Replay(func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("read-only replay saw %d records, want 1", n)
	}

	// A read-only open of a missing directory fails instead of creating it.
	missing := filepath.Join(t.TempDir(), "nope")
	if _, err := OpenSegmentedLogReadOnly(missing); err == nil {
		t.Error("read-only open created a missing segmented log")
	}
	if _, statErr := os.Stat(missing); !errors.Is(statErr, os.ErrNotExist) {
		t.Error("read-only open left files behind")
	}
}

func TestSegmentedLogBadConfig(t *testing.T) {
	if _, err := OpenSegmentedLog(filepath.Join(t.TempDir(), "s"), 0); err == nil {
		t.Error("fresh segmented log with 0 shards accepted")
	}
	if _, err := OpenSegmentedLog(filepath.Join(t.TempDir(), "s"), maxSegments+1); err == nil {
		t.Error("absurd shard count accepted")
	}

	// A manifest whose first record is not the shard count is rejected.
	dir := filepath.Join(t.TempDir(), "s")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := OpenFileLog(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(&Record{Kind: 7, Payload: []byte("not-a-count")}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := OpenSegmentedLog(dir, 0); err == nil {
		t.Error("manifest without a shard-count record accepted")
	}
}

func TestIsSegmented(t *testing.T) {
	root := t.TempDir()
	if IsSegmented(filepath.Join(root, "missing")) {
		t.Error("a missing directory reads as segmented")
	}
	if IsSegmented(root) {
		t.Error("an empty directory reads as segmented")
	}
	plain := filepath.Join(root, "plain")
	if err := os.MkdirAll(plain, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(filepath.Join(plain, "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if IsSegmented(plain) {
		t.Error("a directory with a single-file log reads as segmented")
	}
	seg := filepath.Join(root, "seg")
	s, err := OpenSegmentedLog(seg, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !IsSegmented(seg) {
		t.Error("a segmented log's directory does not read as segmented")
	}
}

// TestSegmentedBoardFront: Board(i) is the raw segment until SetBoard puts a
// front before it, the front sees the shard's appends, the other shards
// stay raw, and SetBoard(i, nil) restores the segment.
func TestSegmentedBoardFront(t *testing.T) {
	s, err := OpenSegmentedLog(filepath.Join(t.TempDir(), "seg"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if s.Board(i) != BoardLog(s.Segment(i)) {
			t.Fatalf("Board(%d) is not the raw segment before any SetBoard", i)
		}
	}
	front := NewMemLog()
	s.SetBoard(1, front)
	if s.Board(1) != BoardLog(front) {
		t.Fatal("Board(1) is not the installed front")
	}
	if s.Board(0) != BoardLog(s.Segment(0)) || s.Board(2) != BoardLog(s.Segment(2)) {
		t.Fatal("fronting shard 1 changed another shard's board")
	}
	if err := s.Board(1).Append(&Record{Kind: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if front.Len() != 1 || s.Segment(1).Len() != 0 {
		t.Fatalf("append through the front: front holds %d, segment %d", front.Len(), s.Segment(1).Len())
	}
	s.SetBoard(1, nil)
	if s.Board(1) != BoardLog(s.Segment(1)) {
		t.Fatal("SetBoard(1, nil) did not restore the raw segment")
	}
}
