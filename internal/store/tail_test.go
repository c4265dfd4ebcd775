package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tailRec(kind uint8, epoch uint32, payload string) *Record {
	return &Record{Kind: kind, Epoch: epoch, Payload: []byte(payload)}
}

func mustAppend(t *testing.T, l BoardLog, recs ...*Record) {
	t.Helper()
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// drain pulls records until ErrNoRecord, returning them with their offsets.
func drain(t *testing.T, tl Tailer) ([]*Record, []int64) {
	t.Helper()
	var recs []*Record
	var offs []int64
	for {
		rec, off, err := tl.Next()
		if errors.Is(err, ErrNoRecord) {
			return recs, offs
		}
		if err != nil {
			t.Fatalf("tail: %v", err)
		}
		recs = append(recs, rec)
		offs = append(offs, off)
	}
}

// TestFileTailerFollowsAppends: a tailer sees exactly the records appended so
// far, at strictly increasing offsets, then ErrNoRecord; appends made after
// the tailer drained become visible on the next poll — the live-follow
// contract the vdp tail auditor is built on.
func TestFileTailerFollowsAppends(t *testing.T) {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first := []*Record{tailRec(1, 0, "alpha"), tailRec(2, 0, "beta"), tailRec(3, 0, "")}
	mustAppend(t, l, first...)

	tl, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	recs, offs := drain(t, tl)
	if len(recs) != len(first) {
		t.Fatalf("tailed %d records, want %d", len(recs), len(first))
	}
	for i, rec := range recs {
		if rec.Kind != first[i].Kind || rec.Epoch != first[i].Epoch || !bytes.Equal(rec.Payload, first[i].Payload) {
			t.Fatalf("record %d differs from what was appended", i)
		}
		if i > 0 && offs[i] <= offs[i-1] {
			t.Fatalf("offsets not increasing: %v", offs)
		}
	}
	if offs[0] != int64(len(fileMagic)) {
		t.Fatalf("first record at offset %d, want %d", offs[0], len(fileMagic))
	}

	// Nothing more yet.
	if _, _, err := tl.Next(); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("drained tail returned %v, want ErrNoRecord", err)
	}

	// New appends become visible without reopening the tailer.
	late := tailRec(5, 1, "late arrival")
	mustAppend(t, l, late)
	rec, _, err := tl.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != late.Kind || !bytes.Equal(rec.Payload, late.Payload) {
		t.Fatal("late append not visible to live tailer")
	}
}

// TestFileTailerIgnoresUncommittedBytes: bytes past the committed offset — a
// torn fragment from a crashed append — are never served, even though they
// are on disk. The tailer answers ErrNoRecord, not garbage.
func TestFileTailerIgnoresUncommittedBytes(t *testing.T) {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, tailRec(1, 0, "committed"))
	frag := EncodeRecord(tailRec(2, 0, "never committed"))
	if err := l.writeRaw(frag[:len(frag)/2]); err != nil {
		t.Fatal(err)
	}

	tl, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	recs, _ := drain(t, tl)
	if len(recs) != 1 || string(recs[0].Payload) != "committed" {
		t.Fatalf("tailer served %d records, want only the committed one", len(recs))
	}
}

// TestFileTailerDetectsCorruption: a byte flipped inside the committed
// region is corruption, reported with the record's index and byte offset —
// and the cursor does not advance, so re-polling repeats the verdict
// instead of skipping the damaged evidence.
func TestFileTailerDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec0, rec1 := tailRec(1, 0, "intact record"), tailRec(2, 0, "doomed record")
	mustAppend(t, l, rec0, rec1)

	tl, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, _, err := tl.Next(); err != nil {
		t.Fatal(err)
	}

	// Flip a body byte of record 1 behind the tailer's back (through a
	// second handle, as an attacker editing the file in place would).
	rec1Off := int64(len(fileMagic) + len(EncodeRecord(rec0)))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, rec1Off+6); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, off, err := tl.Next()
	if err == nil || errors.Is(err, ErrNoRecord) {
		t.Fatalf("corrupted record tailed without error (err=%v)", err)
	}
	if off != rec1Off {
		t.Fatalf("corruption reported at offset %d, want %d", off, rec1Off)
	}
	wantFrag := "record 1 (offset"
	if !bytes.Contains([]byte(err.Error()), []byte(wantFrag)) {
		t.Fatalf("error %q does not carry the offending position %q", err, wantFrag)
	}
	// Cursor pinned: the same verdict again, never a silent skip.
	if _, _, err2 := tl.Next(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("re-poll after corruption returned %v, want the same error", err2)
	}
}

// TestFileTailerLengthTamper: growing a record's length prefix makes it
// overrun the committed region; the tailer refuses rather than reading into
// uncommitted bytes.
func TestFileTailerLengthTamper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, tailRec(1, 0, "short"))

	tl, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Length prefix lives at the first 4 bytes of the frame; make it huge.
	if _, err := f.WriteAt([]byte{0x00, 0x00, 0xff, 0xff}, int64(len(fileMagic))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = tl.Next()
	if err == nil || errors.Is(err, ErrNoRecord) {
		t.Fatalf("overrunning record tailed without error (err=%v)", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("overruns the committed log")) {
		t.Fatalf("error %q does not name the overrun", err)
	}
}

// TestMemTailer: the in-memory log's tailer follows live appends with record
// indices as offsets.
func TestMemTailer(t *testing.T) {
	l := NewMemLog()
	mustAppend(t, l, tailRec(1, 0, "a"), tailRec(2, 0, "b"))
	tl, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, offs := drain(t, tl)
	if len(recs) != 2 || offs[0] != 0 || offs[1] != 1 {
		t.Fatalf("mem tail: %d records, offsets %v", len(recs), offs)
	}
	if _, _, err := tl.Next(); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("drained mem tail returned %v, want ErrNoRecord", err)
	}
	mustAppend(t, l, tailRec(3, 0, "c"))
	rec, off, err := tl.Next()
	if err != nil || rec.Kind != 3 || off != 2 {
		t.Fatalf("late mem append: rec=%v off=%d err=%v", rec, off, err)
	}
}

// TestFaultLogDiskOutcomes pins what each fault kind leaves on disk, which
// is the ground truth the vdp crash-recovery matrix builds on:
//
//	fail        — nothing; the record never reached the file.
//	short-write — a torn fragment past the committed offset; reopening
//	              recovers the intact prefix and reports the truncation.
//	torn-append — the record is durable even though the append "failed";
//	              reopening finds it.
func TestFaultLogDiskOutcomes(t *testing.T) {
	for _, tc := range []struct {
		kind      FaultKind
		wantLen   int  // records visible after reopen
		truncated bool // reopen had to drop a torn tail
	}{
		{FaultFail, 1, false},
		{FaultShortWrite, 1, true},
		{FaultTornAppend, 2, false},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "board.log")
			inner, err := OpenFileLog(path)
			if err != nil {
				t.Fatal(err)
			}
			fl := NewFaultLog(inner, tc.kind, 1)
			if err := fl.Append(tailRec(1, 0, "survives")); err != nil {
				t.Fatal(err)
			}
			if fl.Tripped() {
				t.Fatal("fault fired before its trip point")
			}
			err = fl.Append(tailRec(2, 0, "at the trip"))
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("trip append returned %v, want ErrInjected", err)
			}
			if !fl.Tripped() {
				t.Fatal("fault did not report tripping")
			}
			// The log is dead after the trip, like the process that owned it.
			if err := fl.Append(tailRec(3, 0, "after death")); !errors.Is(err, ErrInjected) {
				t.Fatalf("post-trip append returned %v, want ErrInjected", err)
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenFileLog(path)
			if err != nil {
				t.Fatalf("recovery reopen failed: %v", err)
			}
			defer re.Close()
			if re.Len() != tc.wantLen {
				t.Fatalf("after %s: recovered %d records, want %d", tc.kind, re.Len(), tc.wantLen)
			}
			if (re.Truncated() > 0) != tc.truncated {
				t.Fatalf("after %s: truncated=%d, want torn tail=%v", tc.kind, re.Truncated(), tc.truncated)
			}
		})
	}
}

// TestFaultFromSeed: the seed→plan map is deterministic and always lands the
// trip inside [0, maxTrip).
func TestFaultFromSeed(t *testing.T) {
	seenKind := map[FaultKind]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		k1, t1 := FaultFromSeed(seed, 9)
		k2, t2 := FaultFromSeed(seed, 9)
		if k1 != k2 || t1 != t2 {
			t.Fatalf("seed %d is not deterministic", seed)
		}
		if t1 < 0 || t1 >= 9 {
			t.Fatalf("seed %d: trip %d outside [0,9)", seed, t1)
		}
		seenKind[k1] = true
	}
	if len(seenKind) != 3 {
		t.Fatalf("64 seeds exercised only %d fault kinds", len(seenKind))
	}
}

// TestReadFromReadsOnlyWhatItShips: ReadFrom seeks straight to its record
// through the offset index, so a byte flipped inside record 0 does not stop a
// reader of the last 64 records — while a reader from record 0 still reports
// the checksum mismatch at record 0. A follower's poll costs only the
// records it ships.
func TestReadFromReadsOnlyWhatItShips(t *testing.T) {
	const n, last = 200, 64
	path := filepath.Join(t.TempDir(), "board.log")
	l, err := OpenFileLog(path, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < n; i++ {
		mustAppend(t, l, tailRec(1, 0, fmt.Sprintf("record %03d", i)))
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, int64(len(fileMagic))+6); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tl, err := l.ReadFrom(n - last)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	recs, _ := drain(t, tl)
	if len(recs) != last {
		t.Fatalf("ReadFrom(%d) returned %d records, want %d", n-last, len(recs), last)
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("record %03d", n-last+i); string(rec.Payload) != want {
			t.Fatalf("record %d is %q, want %q", n-last+i, rec.Payload, want)
		}
	}

	head, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	_, off, err := head.Next()
	if err == nil || !strings.Contains(err.Error(), "record 0 (offset 7)") || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("ReadFrom(0) returned %v, want the checksum mismatch at record 0", err)
	}
	if off != int64(len(fileMagic)) {
		t.Fatalf("corruption reported at offset %d, want %d", off, len(fileMagic))
	}
}

// TestReadFromBounds: every log answers ReadFrom(Len()) with a caught-up
// tailer and refuses an index below 0 or past Len.
func TestReadFromBounds(t *testing.T) {
	fl, err := OpenFileLog(filepath.Join(t.TempDir(), "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	rl, err := NewReplicatedLog(NewMemLog(), (&mirrorSink{}).fn)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]Log{"mem": NewMemLog(), "file": fl, "replicated": rl} {
		mustAppend(t, l, tailRec(1, 0, "a"), tailRec(2, 0, "b"))
		tl, err := l.ReadFrom(l.Len())
		if err != nil {
			t.Fatalf("%s: ReadFrom(Len()): %v", name, err)
		}
		if _, _, err := tl.Next(); !errors.Is(err, ErrNoRecord) {
			t.Fatalf("%s: ReadFrom(Len()) is not caught up: %v", name, err)
		}
		tl.Close()
		for _, bad := range []int{-1, l.Len() + 1} {
			if _, err := l.ReadFrom(bad); err == nil {
				t.Fatalf("%s: ReadFrom(%d) of a %d-record log succeeded", name, bad, l.Len())
			}
		}
	}
}

// TestReadFromAfterTornTailRecovery: the offset index is rebuilt by the
// recovery scan, so after a torn tail is dropped (writable open) or skipped
// (read-only open), ReadFrom(Len()-1) returns the last intact record — and
// after one more Append on the writable log, the appended one.
func TestReadFromAfterTornTailRecovery(t *testing.T) {
	half := func(enc []byte) []byte { return enc[:len(enc)/2] }
	garbageBody := func(enc []byte) []byte {
		for i := 4; i < len(enc); i++ {
			enc[i] = 0
		}
		return enc
	}
	for _, tc := range []struct {
		name     string
		tear     func([]byte) []byte
		readOnly bool
	}{
		{"half-record", half, false},
		{"garbage-body", garbageBody, false},
		{"half-record-read-only", half, true},
		{"garbage-body-read-only", garbageBody, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "board.log")
			l, err := OpenFileLog(path)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, l, tailRec(1, 0, "first"), tailRec(2, 0, "second"), tailRec(3, 0, "last intact"))
			l.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tear(EncodeRecord(tailRec(9, 0, "torn away")))); err != nil {
				t.Fatal(err)
			}
			f.Close()

			if tc.readOnly {
				l, err = OpenFileLogReadOnly(path)
			} else {
				l, err = OpenFileLog(path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if l.Truncated() == 0 || l.Len() != 3 {
				t.Fatalf("recovery kept %d records (truncated %d bytes), want 3 and a torn tail", l.Len(), l.Truncated())
			}
			readLast := func(want string) {
				t.Helper()
				tl, err := l.ReadFrom(l.Len() - 1)
				if err != nil {
					t.Fatal(err)
				}
				defer tl.Close()
				recs, _ := drain(t, tl)
				if len(recs) != 1 || string(recs[0].Payload) != want {
					t.Fatalf("ReadFrom(Len()-1) returned %d records, want only %q", len(recs), want)
				}
			}
			readLast("last intact")
			if tc.readOnly {
				return
			}
			mustAppend(t, l, tailRec(4, 0, "after recovery"))
			readLast("after recovery")
		})
	}
}

// TestFaultLogGroupCommit: AppendNoSync trips on the same counter as Append,
// and Sync forwards to the file until the trip and fails after it.
func TestFaultLogGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.log")
	inner, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultLog(inner, FaultFail, 2)
	if err := fl.Append(tailRec(1, 0, "synced")); err != nil {
		t.Fatal(err)
	}
	if err := fl.AppendNoSync(tailRec(2, 0, "grouped")); err != nil {
		t.Fatal(err)
	}
	if err := fl.Sync(); err != nil {
		t.Fatalf("pre-trip Sync: %v", err)
	}
	if err := fl.AppendNoSync(tailRec(3, 0, "at the trip")); !errors.Is(err, ErrInjected) {
		t.Fatalf("trip AppendNoSync returned %v, want ErrInjected", err)
	}
	if err := fl.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip Sync returned %v, want ErrInjected", err)
	}
	if fl.Len() != 2 {
		t.Fatalf("Len = %d after the trip, want 2", fl.Len())
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", re.Len())
	}
}

// TestFileLogTailStartsAtFirstRecord: Tail follows from record 0, as
// ReadFrom(0) does, including records appended after it opened.
func TestFileLogTailStartsAtFirstRecord(t *testing.T) {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, tailRec(1, 0, "a"), tailRec(2, 0, "b"))
	tl, err := l.Tail()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	ref, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	mustAppend(t, l, tailRec(3, 1, "c"))
	got, gotOffs := drain(t, tl)
	want, wantOffs := drain(t, ref)
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("Tail read %d records, ReadFrom(0) %d, want 3", len(got), len(want))
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || got[i].Epoch != want[i].Epoch ||
			!bytes.Equal(got[i].Payload, want[i].Payload) || gotOffs[i] != wantOffs[i] {
			t.Fatalf("record %d: Tail and ReadFrom(0) differ", i)
		}
	}
	if got[0].Kind != 1 || string(got[2].Payload) != "c" {
		t.Fatal("Tail did not start at the first record")
	}
}
