package vdp

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// runEpoch submits the given choices (client IDs idBase..) and finalizes,
// returning the sealed digest.
func runEpoch(t *testing.T, sess *Session, pub *Public, idBase int, choices []int) []byte {
	t.Helper()
	ctx := context.Background()
	for i, choice := range choices {
		sub, err := pub.NewClientSubmission(idBase+i, choice, testSeed(byte(40+idBase+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return TranscriptDigest(pub, res.Transcript)
}

// TestCompactSnapshotBoot is the epoch-compaction acceptance path: a
// compacted epoch boundary (a) leaves later epochs byte-identical to the
// Reset-based run with the same seed, (b) lets ResumeSession boot from the
// snapshot instead of replaying the compacted epoch, and (c) keeps the
// pre-snapshot evidence offline-auditable.
func TestCompactSnapshotBoot(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)

	// Reference: two epochs across a plain Reset boundary.
	ref, err := NewSession(pub, SessionOptions{Rand: testSeed(90), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	runEpoch(t, ref, pub, 0, []int{1, 0, 1})
	if err := ref.Reset(); err != nil {
		t.Fatal(err)
	}
	wantDigest1 := runEpoch(t, ref, pub, 10, []int{0, 1, 1})

	// Same seed, durable, with Compact closing epoch 0.
	path := filepath.Join(t.TempDir(), "board.log")
	log, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(90), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	digest0 := runEpoch(t, sess, pub, 0, []int{1, 0, 1})
	if err := sess.Compact(); err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() != 1 {
		t.Fatalf("after Compact: epoch %d, want 1", sess.Epoch())
	}
	digest1 := runEpoch(t, sess, pub, 10, []int{0, 1, 1})
	if !bytes.Equal(digest1, wantDigest1) {
		t.Fatal("epoch after Compact differs from the same epoch after Reset")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot from the snapshot: the resumed session continues exactly where
	// the crashed one sealed, without the compacted epoch's records.
	log2, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	sess2, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(90), Store: log2, Parallelism: 2})
	if err != nil {
		t.Fatalf("resume from compacted log: %v", err)
	}
	if sess2.Epoch() != 1 || !sess2.Finalized() {
		t.Fatalf("resumed: epoch %d finalized=%v, want sealed epoch 1", sess2.Epoch(), sess2.Finalized())
	}
	if !bytes.Equal(TranscriptDigest(pub, sess2.SealedTranscript()), digest1) {
		t.Fatal("snapshot boot resumed to a different sealed transcript")
	}
	// The compacted log stays fully auditable, snapshot epoch included.
	for _, epoch := range []int{0, 1} {
		if err := AuditLog(ctx, pub, log2, epoch, 2); err != nil {
			t.Fatalf("audit of epoch %d on the compacted log: %v", epoch, err)
		}
	}
	// The resumed session keeps going: compact again, run epoch 2.
	if err := sess2.Compact(); err != nil {
		t.Fatal(err)
	}
	if d0 := runEpoch(t, sess2, pub, 20, []int{1, 1}); len(d0) == 0 {
		t.Fatal("empty digest for epoch 2")
	}

	_ = digest0
}

// TestCompactRequiresSeal: compaction is only legal on a finalized epoch —
// there is no digest to pin otherwise.
func TestCompactRequiresSeal(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Compact(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Compact on an open epoch returned %v, want ErrBadConfig", err)
	}
}

// TestCompactTamperedSnapshot: a snapshot whose pinned digest disagrees
// with the epoch's own seal is refused by the offline audit and by the live
// tail — the record later boots will trust must match the evidence.
func TestCompactTamperedSnapshot(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(91), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	runEpoch(t, sess, pub, 0, []int{1, 0})
	if err := sess.Compact(); err != nil {
		t.Fatal(err)
	}
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapAt := len(recs) - 1
	if recs[snapAt].Kind != RecordSnapshot {
		t.Fatalf("last record kind %d, want snapshot", recs[snapAt].Kind)
	}
	tampered := copyRecords(recs)
	tampered[snapAt].Payload[len(tampered[snapAt].Payload)-1] ^= 0x01

	mlog := store.NewMemLog()
	for _, rec := range tampered {
		if err := mlog.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := AuditLog(ctx, pub, mlog, 0, 2); err == nil || !strings.Contains(err.Error(), "snapshot digest") {
		t.Fatalf("audit of tampered snapshot = %v, want snapshot-digest refusal", err)
	}
	a := NewTailAuditor(pub, TailOptions{Workers: 2})
	defer a.Close()
	var tailErr error
	for i, rec := range tampered {
		if tailErr = a.Feed(rec, int64(i)); tailErr != nil {
			break
		}
	}
	if tailErr == nil || !strings.Contains(tailErr.Error(), "snapshot digest") {
		t.Fatalf("tail over tampered snapshot = %v, want snapshot-digest refusal", tailErr)
	}
}

// TestCompactSharded: the sharded front door compacts every segment plus
// its own epoch counter; resume and the offline audits keep working on both
// sides of the boundary.
func TestCompactSharded(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSession(pub, SessionOptions{Rand: testSeed(92), Shards: 3, Segmented: seg, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	submitRange := func(idBase, n int) {
		for i := 0; i < n; i++ {
			sub, err := pub.NewClientSubmission(idBase+i, 1, testSeed(byte(60+idBase+i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := ss.Submit(ctx, sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	submitRange(0, 6)
	if _, err := ss.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	if ss.Epoch() != 1 {
		t.Fatalf("after Compact: epoch %d, want 1", ss.Epoch())
	}
	submitRange(20, 6)
	res1, err := ss.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	seg2, err := store.OpenSegmentedLog(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	ss2, err := ResumeShardedSession(ctx, pub, SessionOptions{Rand: testSeed(92), Shards: 3, Segmented: seg2, Parallelism: 2})
	if err != nil {
		t.Fatalf("resume from compacted segmented log: %v", err)
	}
	if ss2.Epoch() != 1 || !ss2.Finalized() {
		t.Fatalf("resumed: epoch %d finalized=%v, want sealed epoch 1", ss2.Epoch(), ss2.Finalized())
	}
	for _, epoch := range []int{0, 1} {
		if err := AuditSegmentedLog(ctx, pub, seg2, epoch, 2); err != nil {
			t.Fatalf("segmented audit of epoch %d: %v", epoch, err)
		}
	}
	// The live merged tail agrees with the merge the session published.
	st, err := tailSegments(pub, seg2, TailOptions{Workers: 2}, shardSegments)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for {
		n, err := st.Poll()
		if err != nil {
			t.Fatalf("segmented tail poll: %v", err)
		}
		if n == 0 {
			break
		}
	}
	for epoch, want := range map[int][]byte{1: res1.Digest} {
		digest, ready, err := st.VerifyMerged(epoch)
		if err != nil || !ready {
			t.Fatalf("merged verify of epoch %d: ready=%v err=%v", epoch, ready, err)
		}
		if !bytes.Equal(digest, want) {
			t.Fatalf("merged tail digest for epoch %d differs from the session's", epoch)
		}
	}
}
