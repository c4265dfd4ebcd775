package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/pedersen"
	"repro/internal/sigma"
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

// TestSubmitBatchAdversarial: malicious members in an otherwise honest
// batch are rejected individually — each with the verdict, reason and
// board placement the unfolded checks give it alone — while their
// neighbours land, and the sealed durable transcript still passes the
// offline audit. At K = 1 every share opening rides the board proof's
// held base; at K = 2 the derived opening does and share 0 is a term of its
// own.
func TestSubmitBatchAdversarial(t *testing.T) {
	for _, k := range []int{1, 2} {
		pub := testPublic(t, k, 1, 4)
		f := pub.Field()
		// Each case corrupts subs in place and names the corrupt members
		// with their board placement.
		cases := []struct {
			name    string
			corrupt func(subs []*ClientSubmission, donor *ClientSubmission) map[int]bool
		}{
			{"bit-flipped-commitment", func(subs []*ClientSubmission, donor *ClientSubmission) map[int]bool {
				subs[3].Public.ShareCommitments[0][0] = donor.Public.ShareCommitments[0][0]
				return map[int]bool{3: true}
			}},
			{"replayed-proof", func(subs []*ClientSubmission, donor *ClientSubmission) map[int]bool {
				subs[3].Public.BitProof = donor.Public.BitProof
				return map[int]bool{3: true}
			}},
			{"equivocating-payload", func(subs []*ClientSubmission, _ *ClientSubmission) map[int]bool {
				o := subs[3].Payloads[k-1].Openings[0]
				o.X = o.X.Add(f.One())
				return map[int]bool{3: false}
			}},
			{"wrong-r-opening", func(subs []*ClientSubmission, _ *ClientSubmission) map[int]bool {
				o := subs[3].Payloads[0].Openings[0]
				o.R = o.R.Add(f.One())
				return map[int]bool{3: false}
			}},
			{"payload-names-another-client", func(subs []*ClientSubmission, donor *ClientSubmission) map[int]bool {
				subs[3].Payloads[0].ClientID = donor.Public.ID
				return map[int]bool{3: false}
			}},
			{"truncated-payloads", func(subs []*ClientSubmission, _ *ClientSubmission) map[int]bool {
				subs[3].Payloads = subs[3].Payloads[:k-1]
				return map[int]bool{3: false}
			}},
			{"mixed-frame", func(subs []*ClientSubmission, donor *ClientSubmission) map[int]bool {
				o := subs[1].Payloads[k-1].Openings[0]
				o.X = o.X.Add(f.One())
				subs[4].Public.ShareCommitments[0][0] = donor.Public.ShareCommitments[0][0]
				return map[int]bool{1: false, 4: true}
			}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("K=%d/%s", k, tc.name), func(t *testing.T) {
				const n = 6
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
				corrupt := tc.corrupt(subs, donor)

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
					if _, bad := corrupt[i]; !bad {
						if v != nil {
							t.Fatalf("honest client %d rejected alongside the corrupt ones: %v", i, v)
						}
						continue
					}
					if !errors.Is(v, ErrClientReject) {
						t.Fatalf("corrupt client %d verdict = %v, want ErrClientReject", i, v)
					}
					want, _ := unfoldedVerdict(pub, subs[i])
					if want == nil || v.Error() != want.Error() {
						t.Errorf("corrupt client %d: verdict %q, the unfolded checks give %v", i, v, want)
					}
				}
				// The rejected IDs stay reserved: a batch retry is a duplicate.
				for i := range corrupt {
					retry, err := sess.SubmitBatch(ctx, []*ClientSubmission{subs[i]})
					if err != nil {
						t.Fatal(err)
					}
					if !errors.Is(retry[0], ErrClientReject) {
						t.Fatalf("rejected client %d resubmitted through batch: %v", i, retry[0])
					}
				}

				res, err := sess.Finalize(ctx)
				if err != nil {
					t.Fatalf("finalize: %v", err)
				}
				for i, wantOnBoard := range corrupt {
					if !errors.Is(res.RejectedClients[i], ErrClientReject) {
						t.Errorf("finalized rejections %v, want client %d", res.RejectedClients, i)
					}
					onBoard := false
					for _, cp := range res.Transcript.Clients {
						if cp.ID == i {
							onBoard = true
						}
					}
					if onBoard != wantOnBoard {
						t.Errorf("corrupt client %d on board = %v, want %v", i, onBoard, wantOnBoard)
					}
				}
				if err := Audit(pub, res.Transcript); err != nil {
					t.Fatalf("transcript audit: %v", err)
				}
				// The durable log must replay and audit cleanly: the batch's
				// submission, verdict and seal records obey the same grammar
				// the one-at-a-time path writes.
				if err := AuditLog(ctx, pub, boardLog, sess.Epoch(), 0); err != nil {
					t.Fatalf("offline log audit: %v", err)
				}
			})
		}
	}
}

// unfoldedVerdict is a member's admission verdict and board placement the
// sequential way: its board proof through FilterValidClients, then its
// payload count and each prover's column with checkPayloadOpenings, in
// prover order.
func unfoldedVerdict(pub *Public, sub *ClientSubmission) (error, bool) {
	if _, rej := pub.FilterValidClients([]*ClientPublic{sub.Public}); rej[sub.Public.ID] != nil {
		return rej[sub.Public.ID], true
	}
	if len(sub.Payloads) != pub.cfg.Provers {
		return fmt.Errorf("%w: client %d supplied %d per-prover payloads, want %d",
			ErrClientReject, sub.Public.ID, len(sub.Payloads), pub.cfg.Provers), false
	}
	for k, payload := range sub.Payloads {
		if err := pub.checkPayloadOpenings(sub.Public, payload, k); err != nil {
			return err, false
		}
	}
	return nil, true
}

// openingAt is payload k's opening of bin j, or nil where an earlier
// corruption removed it.
func openingAt(sub *ClientSubmission, j, k int) *pedersen.Opening {
	if k >= len(sub.Payloads) || sub.Payloads[k] == nil || j >= len(sub.Payloads[k].Openings) {
		return nil
	}
	return sub.Payloads[k].Openings[j]
}

// TestVerifyBatchMatchesUnfolded: over seeded frames at K ∈ {1, 2, 3} and
// Bins ∈ {1, 4}, each with random members corrupted in one or two ways —
// proof, commitment, opening X or R, a value shifted between two shares,
// payload ID, prover index, a missing payload or opening — verifyBatch gives every member the verdict text and
// board placement of unfoldedVerdict, whichever way the folded check and
// its fallback went.
func TestVerifyBatchMatchesUnfolded(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	corruptions := []struct {
		name string
		do   func(pub *Public, sub, donor *ClientSubmission, j, k int)
	}{
		{"proof", func(pub *Public, sub, _ *ClientSubmission, j, _ int) {
			one := pub.Field().One()
			if p := sub.Public.BitProof; p != nil {
				q := *p
				q.Z0 = q.Z0.Add(one)
				sub.Public.BitProof = &q
				return
			}
			q := *sub.Public.OneHotProof
			q.Bits = append([]*sigma.BitProof{}, q.Bits...)
			b := *q.Bits[j]
			b.Z1 = b.Z1.Add(one)
			q.Bits[j] = &b
			sub.Public.OneHotProof = &q
		}},
		{"commitment", func(_ *Public, sub, donor *ClientSubmission, j, k int) {
			sub.Public.ShareCommitments[j][k] = donor.Public.ShareCommitments[j][k]
		}},
		{"opening-x", func(pub *Public, sub, _ *ClientSubmission, j, k int) {
			if o := openingAt(sub, j, k); o != nil {
				o.X = o.X.Add(pub.Field().One())
			}
		}},
		{"opening-r", func(pub *Public, sub, _ *ClientSubmission, j, k int) {
			if o := openingAt(sub, j, k); o != nil {
				o.R = o.R.Add(pub.Field().One())
			}
		}},
		{"shifted-shares", func(pub *Public, sub, _ *ClientSubmission, j, k int) {
			// The bin's openings still sum to the derived opening: only
			// the per-share checks can see it.
			one := pub.Field().One()
			from, to := openingAt(sub, j, k), openingAt(sub, j, (k+1)%pub.cfg.Provers)
			if from != nil && to != nil && from != to {
				from.X, to.X = from.X.Add(one), to.X.Sub(one)
			}
		}},
		{"payload-id", func(_ *Public, sub, donor *ClientSubmission, _, k int) {
			if k < len(sub.Payloads) && sub.Payloads[k] != nil {
				sub.Payloads[k].ClientID = donor.Public.ID
			}
		}},
		{"prover-index", func(pub *Public, sub, _ *ClientSubmission, _, k int) {
			if k < len(sub.Payloads) && sub.Payloads[k] != nil {
				sub.Payloads[k].Prover = (k + 1) % (pub.cfg.Provers + 1)
			}
		}},
		{"missing-payload", func(_ *Public, sub, _ *ClientSubmission, j, k int) {
			switch {
			case k >= len(sub.Payloads):
			case j%3 == 0:
				sub.Payloads[k] = nil
			case j%3 == 1 && openingAt(sub, j, k) != nil:
				sub.Payloads[k].Openings[j] = nil
			default:
				sub.Payloads = append(sub.Payloads[:k:k], sub.Payloads[k+1:]...)
			}
		}},
	}
	for _, k := range []int{1, 2, 3} {
		for _, bins := range []int{1, 4} {
			pub := testPublic(t, k, bins, 4)
			sess, err := NewSession(pub, SessionOptions{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Frame 0 stays honest; frame 1+c corrupts one member with
			// corruption c alone, so the folded check itself must find it;
			// the last frames corrupt a random subset, one or two ways each.
			frames := 1 + len(corruptions) + 3
			for frame := 0; frame < frames; frame++ {
				const n = 8
				subs := make([]*ClientSubmission, n)
				for i := range subs {
					sub, err := pub.NewClientSubmission(100*frame+i, rng.Intn(2)*(bins-1), nil)
					if err != nil {
						t.Fatal(err)
					}
					subs[i] = sub
				}
				donor, err := pub.NewClientSubmission(9999, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				var applied []string
				corrupt := func(i int, c int) {
					corruptions[c].do(pub, subs[i], donor, rng.Intn(bins), rng.Intn(k))
					applied = append(applied, fmt.Sprintf("%d:%s", i, corruptions[c].name))
				}
				switch {
				case frame == 0:
				case frame <= len(corruptions):
					corrupt(rng.Intn(n), frame-1)
				default:
					for i := 0; i < n; i++ {
						if rng.Intn(3) != 0 {
							continue
						}
						for c := 0; c < 1+rng.Intn(2); c++ {
							corrupt(i, rng.Intn(len(corruptions)))
						}
					}
				}
				got, onBoard, err := sess.verifyBatch(context.Background(), subs)
				if err != nil {
					t.Fatal(err)
				}
				for i, sub := range subs {
					want, wantOnBoard := unfoldedVerdict(pub, sub)
					if fmt.Sprint(got[i]) != fmt.Sprint(want) || onBoard[i] != wantOnBoard {
						t.Errorf("K=%d bins=%d frame %d %v: member %d got (%v, onBoard %v), unfolded (%v, onBoard %v)",
							k, bins, frame, applied, i, got[i], onBoard[i], want, wantOnBoard)
					}
				}
			}
		}
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
