package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// Tests for the batched admission pipeline: wire round trips for the batch
// frame and verdict reply, verdict/digest equivalence between SubmitBatch
// and a Submit loop, adversarial batches with one malicious member, and the
// duplicate/lifecycle edges. The invariant under test throughout: batching
// changes wall-clock cost, never verdicts, board contents, log grammar or
// transcript digests.

func TestSubmissionBatchRoundTrip(t *testing.T) {
	pub := testPublic(t, 2, 2, 4)
	var subs []*ClientSubmission
	for id := 0; id < 5; id++ {
		sub, err := pub.NewClientSubmission(id, id%2, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	enc := pub.EncodeSubmissionBatch(subs)
	back, err := pub.DecodeSubmissionBatch(enc)
	if err != nil {
		t.Fatalf("decoding canonical batch: %v", err)
	}
	if len(back) != len(subs) {
		t.Fatalf("round trip returned %d submissions, want %d", len(back), len(subs))
	}
	for i := range back {
		if back[i].Public.ID != subs[i].Public.ID || len(back[i].Payloads) != len(subs[i].Payloads) {
			t.Fatalf("submission %d changed identity/shape in round trip", i)
		}
	}
	// Batch encoding wraps the exact single-submission record encoding, so
	// durable-log replay and batch decode can never drift apart.
	if enc2 := pub.AppendSubmissionBatch(nil, subs); !bytes.Equal(enc, enc2) {
		t.Fatal("EncodeSubmissionBatch and AppendSubmissionBatch disagree")
	}

	// Empty batch is legal on the wire.
	empty, err := pub.DecodeSubmissionBatch(pub.EncodeSubmissionBatch(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch round trip: %d subs, err %v", len(empty), err)
	}

	// Hostile count prefix: over the limit must fail before allocating.
	over := []byte{WireVersion, 0xff, 0xff, 0xff, 0xff}
	if _, err := pub.DecodeSubmissionBatch(over); err == nil {
		t.Fatal("oversized batch count accepted")
	}
	// A well-formed frame one member over the limit.
	full := make([]*ClientSubmission, MaxBatchClients+1)
	for i := range full {
		full[i] = subs[0]
	}
	if _, err := pub.DecodeSubmissionBatch(pub.EncodeSubmissionBatch(full)); err == nil {
		t.Fatalf("a %d-member batch accepted", len(full))
	}
	// Truncated inner submission.
	if _, err := pub.DecodeSubmissionBatch(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated batch accepted")
	}
	// Foreign version byte.
	bad := append([]byte{WireVersion + 1}, enc[1:]...)
	if _, err := pub.DecodeSubmissionBatch(bad); err == nil {
		t.Fatal("foreign wire version accepted")
	}
}

func TestBatchVerdictsRoundTrip(t *testing.T) {
	vs := []BatchVerdict{
		{ID: 3, Accepted: true},
		{ID: 9, Accepted: false, Reason: "client rejected: proof does not verify"},
		{ID: -1, Accepted: false, Reason: "nil submission"},
	}
	back, err := DecodeBatchVerdicts(EncodeBatchVerdicts(vs))
	if err != nil {
		t.Fatalf("decoding verdict reply: %v", err)
	}
	if len(back) != len(vs) {
		t.Fatalf("round trip returned %d verdicts, want %d", len(back), len(vs))
	}
	for i := range vs {
		if back[i] != vs[i] {
			t.Fatalf("verdict %d changed in round trip: %+v vs %+v", i, back[i], vs[i])
		}
	}
	if _, err := DecodeBatchVerdicts([]byte{WireVersion, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("oversized verdict count accepted")
	}
}

// TestSubmitBatchDigestParity: the same client material admitted through a
// Submit loop and through one SubmitBatch produces byte-identical sealed
// transcripts under the same seed — the acceptance property that lets
// batched and unbatched servers interoperate on one bulletin board.
func TestSubmitBatchDigestParity(t *testing.T) {
	for _, tc := range []struct{ k, m int }{{1, 1}, {2, 3}} {
		t.Run(fmt.Sprintf("k%d-m%d", tc.k, tc.m), func(t *testing.T) {
			pub := testPublic(t, tc.k, tc.m, 6)
			const n = 10
			subs := make([]*ClientSubmission, n)
			for i := range subs {
				sub, err := pub.NewClientSubmission(i, i%tc.m, nil)
				if err != nil {
					t.Fatal(err)
				}
				subs[i] = sub
			}
			ctx := context.Background()

			ref, err := NewSession(pub, SessionOptions{Rand: testSeed(9), Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				if err := ref.Submit(ctx, sub); err != nil {
					t.Fatalf("submit: %v", err)
				}
			}
			refRes, err := ref.Finalize(ctx)
			if err != nil {
				t.Fatal(err)
			}

			batched, err := NewSession(pub, SessionOptions{Rand: testSeed(9), Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			verdicts, err := batched.SubmitBatch(ctx, subs)
			if err != nil {
				t.Fatalf("submit batch: %v", err)
			}
			for i, v := range verdicts {
				if v != nil {
					t.Fatalf("honest client %d rejected by batch path: %v", i, v)
				}
			}
			batchRes, err := batched.Finalize(ctx)
			if err != nil {
				t.Fatal(err)
			}

			want := TranscriptDigest(pub, refRes.Transcript)
			got := TranscriptDigest(pub, batchRes.Transcript)
			if !bytes.Equal(want, got) {
				t.Fatal("SubmitBatch transcript digest differs from the Submit loop's under the same seed")
			}
			if err := Audit(pub, batchRes.Transcript); err != nil {
				t.Fatalf("batched transcript failed audit: %v", err)
			}
		})
	}
}

// TestSubmitBatchAdversarial: one malicious member in an otherwise honest
// batch is rejected individually — the exact per-client verdict semantics
// of the Submit loop — while its neighbours land, and the sealed durable
// transcript still passes the offline audit.
func TestSubmitBatchAdversarial(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	f := pub.Field()
	cases := []struct {
		name        string
		corrupt     func(sub, donor *ClientSubmission)
		wantOnBoard bool
	}{
		{"bit-flipped-commitment", func(sub, donor *ClientSubmission) {
			sub.Public.ShareCommitments[0][0] = donor.Public.ShareCommitments[0][0]
		}, true},
		{"replayed-proof", func(sub, donor *ClientSubmission) {
			sub.Public.BitProof = donor.Public.BitProof
		}, true},
		{"equivocating-payload", func(sub, donor *ClientSubmission) {
			sub.Payloads[1].Openings[0].X = sub.Payloads[1].Openings[0].X.Add(f.One())
		}, false},
		{"truncated-payloads", func(sub, donor *ClientSubmission) {
			sub.Payloads = sub.Payloads[:1]
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n, target = 6, 3
			subs := make([]*ClientSubmission, n)
			for i := range subs {
				sub, err := pub.NewClientSubmission(i, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				subs[i] = sub
			}
			donor, err := pub.NewClientSubmission(100+target, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(subs[target], donor)

			boardLog, err := store.OpenFileLog(filepath.Join(t.TempDir(), "board.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer boardLog.Close()
			sess, err := NewSession(pub, SessionOptions{Parallelism: 2, Store: boardLog})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			verdicts, err := sess.SubmitBatch(ctx, subs)
			if err != nil {
				t.Fatalf("batch-level failure: %v", err)
			}
			for i, v := range verdicts {
				if i == target {
					if !errors.Is(v, ErrClientReject) {
						t.Fatalf("corrupt client verdict = %v, want ErrClientReject", v)
					}
					continue
				}
				if v != nil {
					t.Fatalf("honest client %d rejected alongside the corrupt one: %v", i, v)
				}
			}
			// The rejected ID stays reserved: a batch retry is a duplicate.
			retry, err := sess.SubmitBatch(ctx, []*ClientSubmission{subs[target]})
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(retry[0], ErrClientReject) {
				t.Fatalf("rejected client resubmitted through batch: %v", retry[0])
			}

			res, err := sess.Finalize(ctx)
			if err != nil {
				t.Fatalf("finalize: %v", err)
			}
			if !errors.Is(res.RejectedClients[target], ErrClientReject) {
				t.Errorf("finalized rejections %v, want client %d", res.RejectedClients, target)
			}
			onBoard := false
			for _, cp := range res.Transcript.Clients {
				if cp.ID == target {
					onBoard = true
				}
			}
			if onBoard != tc.wantOnBoard {
				t.Errorf("corrupt client on board = %v, want %v", onBoard, tc.wantOnBoard)
			}
			if err := Audit(pub, res.Transcript); err != nil {
				t.Fatalf("transcript audit: %v", err)
			}
			// The durable log must replay and audit cleanly: the batch's
			// submission, verdict and seal records obey the same grammar the
			// one-at-a-time path writes.
			if err := AuditLog(ctx, pub, boardLog, sess.Epoch(), 0); err != nil {
				t.Fatalf("offline log audit: %v", err)
			}
		})
	}
}

// TestShardedSubmitBatchAdversarial: the same property through the sharded
// front door — the batch splits across shards, the corrupt member's shard
// rejects exactly that member, and the merged transcripts pass AuditMerged.
func TestShardedSubmitBatchAdversarial(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	const n, target = 12, 5
	subs := make([]*ClientSubmission, n)
	for i := range subs {
		sub, err := pub.NewClientSubmission(i, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	donor, err := pub.NewClientSubmission(100, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	subs[target].Public.BitProof = donor.Public.BitProof

	ss, err := NewShardedSession(pub, SessionOptions{Shards: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	verdicts, err := ss.SubmitBatch(ctx, subs)
	if err != nil {
		t.Fatalf("batch-level failure: %v", err)
	}
	for i, v := range verdicts {
		if i == target {
			if !errors.Is(v, ErrClientReject) {
				t.Fatalf("corrupt client verdict = %v, want ErrClientReject", v)
			}
			continue
		}
		if v != nil {
			t.Fatalf("honest client %d rejected: %v", i, v)
		}
	}
	if got := ss.Submitted(); got != n {
		t.Errorf("roster holds %d entries, want %d (board-proof failures stay on the board)", got, n)
	}
	res, err := ss.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.RejectedClients[target], ErrClientReject) {
		t.Errorf("finalized rejections %v, want client %d", res.RejectedClients, target)
	}
	if err := AuditMerged(ctx, pub, res.Transcripts(), res.Release, 0); err != nil {
		t.Fatalf("merged audit: %v", err)
	}
}

// TestSubmitBatchDuplicates: duplicates are rejected whether they collide
// with the existing roster or with an earlier member of the same batch, and
// rejected duplicates leave no board record.
func TestSubmitBatchDuplicates(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	sess, err := NewSession(pub, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := pub.NewClientSubmission(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(ctx, first); err != nil {
		t.Fatal(err)
	}
	fresh, err := pub.NewClientSubmission(2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := pub.NewClientSubmission(2, 1, nil) // batch-local duplicate ID
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := sess.SubmitBatch(ctx, []*ClientSubmission{first, fresh, imp, nil})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verdicts[0], ErrClientReject) {
		t.Errorf("roster duplicate verdict = %v, want ErrClientReject", verdicts[0])
	}
	if verdicts[1] != nil {
		t.Errorf("fresh client rejected: %v", verdicts[1])
	}
	if !errors.Is(verdicts[2], ErrClientReject) {
		t.Errorf("batch-local duplicate verdict = %v, want ErrClientReject", verdicts[2])
	}
	if !errors.Is(verdicts[3], ErrClientReject) {
		t.Errorf("nil submission verdict = %v, want ErrClientReject", verdicts[3])
	}
	if got := sess.Submitted(); got != 2 {
		t.Errorf("roster holds %d entries, want 2 (duplicates leave no record)", got)
	}
}

// TestSubmitBatchLifecycle: empty batches, a whole board admitted as one
// batch, and the sealed-epoch guard.
func TestSubmitBatchLifecycle(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	ctx := context.Background()

	sess, err := NewSession(pub, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts, err := sess.SubmitBatch(ctx, nil); err != nil || verdicts != nil {
		t.Fatalf("empty batch: %v, %v", verdicts, err)
	}
	subs := make([]*ClientSubmission, 4)
	for i := range subs {
		sub, err := pub.NewClientSubmission(i, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	verdicts, err := sess.SubmitBatch(ctx, subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if v != nil {
			t.Fatalf("honest batch verdict %d = %v, want nil", i, v)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	// Sealed epoch: the whole batch bounces with the lifecycle sentinel.
	late, err := pub.NewClientSubmission(99, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SubmitBatch(ctx, []*ClientSubmission{late}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("sealed-epoch batch: %v, want ErrBadConfig", err)
	}
}

// TestSubmitBatchInterleavedDurable: batches and single submits interleaved
// on one durable session keep the log replayable — a resumed session sees
// the identical roster, and the sealed epoch passes the offline audit.
func TestSubmitBatchInterleavedDurable(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	dir := t.TempDir()
	boardLog, err := store.OpenFileLog(filepath.Join(dir, "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(4), Store: boardLog})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	subs := make([]*ClientSubmission, 9)
	for i := range subs {
		sub, err := pub.NewClientSubmission(i, i%2, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	// single, batch of 4, single, batch of 2, single.
	if err := sess.Submit(ctx, subs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SubmitBatch(ctx, subs[1:5]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(ctx, subs[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SubmitBatch(ctx, subs[6:8]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(ctx, subs[8]); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(pub, res.Transcript); err != nil {
		t.Fatalf("live transcript audit: %v", err)
	}
	if got := len(res.Transcript.Clients); got != 9 {
		t.Fatalf("board holds %d clients, want 9", got)
	}
	boardLog.Close()

	replay, err := store.OpenFileLogReadOnly(filepath.Join(dir, "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	// The interleaved log replays under the same record grammar the
	// one-at-a-time path writes, and the sealed epoch audits offline.
	if err := AuditLog(ctx, pub, replay, 0, 0); err != nil {
		t.Fatalf("offline audit of interleaved log: %v", err)
	}
	if err := AuditLog(ctx, pub, replay, -1, 0); err != nil {
		t.Fatalf("offline audit (latest epoch): %v", err)
	}
}
