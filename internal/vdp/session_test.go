package vdp

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countdownCtx is a context whose Err() flips to context.Canceled after a
// fixed number of polls. It makes "cancelled mid-stage" deterministic: the
// pipeline's Nth cancellation checkpoint observes the cancellation, with no
// timers and no scheduling luck involved.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(polls int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(int64(polls))
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSessionMatchesRunDigest is the API-migration acceptance criterion:
// a Session fed submissions one at a time — verified eagerly, at any
// Parallelism — produces a byte-identical TranscriptDigest to the legacy
// batch Run under the same seed, for both the counting query and the MPC
// histogram.
func TestSessionMatchesRunDigest(t *testing.T) {
	cases := []struct {
		name    string
		k, m    int
		choices []int
	}{
		{"curator-count", 1, 1, []int{1, 0, 1, 1, 0, 1, 0, 0, 1, 1}},
		{"mpc-histogram", 2, 3, []int{0, 1, 2, 2, 1, 0, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pub := testPublic(t, tc.k, tc.m, 6)
			ref, err := Run(pub, tc.choices, &RunOptions{Rand: testSeed(5), Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := TranscriptDigest(pub, ref.Transcript)
			for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				sess, err := NewSession(pub, SessionOptions{Rand: testSeed(5), Parallelism: w})
				if err != nil {
					t.Fatal(err)
				}
				for i, choice := range tc.choices {
					sub, err := sess.NewClientSubmission(i, choice)
					if err != nil {
						t.Fatal(err)
					}
					if err := sess.Submit(context.Background(), sub); err != nil {
						t.Fatalf("parallelism %d: client %d rejected: %v", w, i, err)
					}
				}
				res, err := sess.Finalize(context.Background())
				if err != nil {
					t.Fatalf("parallelism %d: %v", w, err)
				}
				if got := TranscriptDigest(pub, res.Transcript); !bytes.Equal(got, want) {
					t.Errorf("parallelism %d: session transcript differs from legacy Run under the same seed", w)
				}
				if err := Audit(pub, res.Transcript); err != nil {
					t.Errorf("parallelism %d: session transcript failed audit: %v", w, err)
				}
			}
		})
	}
}

// TestSessionMidStreamRejection: a forged submission is rejected at Submit
// time with the same sentinel, and the finalized RunResult attributes it
// exactly like the batch path's RejectedClients — including an identical
// transcript digest when both paths are seeded alike.
func TestSessionMidStreamRejection(t *testing.T) {
	pub := testPublic(t, 2, 1, 6)
	const n = 8
	subs := make([]*ClientSubmission, n)
	for i := 0; i < n; i++ {
		sub, err := pub.NewClientSubmission(i, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	// Client 3 transplants client 6's proof: well-formed, wrong statement.
	subs[3].Public.BitProof = subs[6].Public.BitProof

	// Batch reference path over the identical material.
	publics := make([]*ClientPublic, n)
	payloads := make(map[int][]*ClientPayload, n)
	for i, sub := range subs {
		publics[i] = sub.Public
		payloads[i] = sub.Payloads
	}
	ref, err := RunWithSubmissions(pub, publics, payloads, &RunOptions{Rand: testSeed(31)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.RejectedClients) != 1 || ref.RejectedClients[3] == nil {
		t.Fatalf("batch reference rejections: %v", ref.RejectedClients)
	}

	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(31), Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		err := sess.Submit(context.Background(), sub)
		if i == 3 {
			if !errors.Is(err, ErrClientReject) {
				t.Fatalf("forged submission not rejected at Submit: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("honest client %d rejected: %v", i, err)
		}
	}
	if got := sess.Rejected(); len(got) != 1 || got[3] == nil {
		t.Errorf("session rejection snapshot: %v", got)
	}
	res, err := sess.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RejectedClients) != 1 || !errors.Is(res.RejectedClients[3], ErrClientReject) {
		t.Errorf("finalized rejections %v, want exactly client 3 with ErrClientReject", res.RejectedClients)
	}
	if res.RejectedClients[3].Error() != ref.RejectedClients[3].Error() {
		t.Errorf("attribution mismatch:\n  session: %v\n  batch:   %v",
			res.RejectedClients[3], ref.RejectedClients[3])
	}
	if !bytes.Equal(TranscriptDigest(pub, res.Transcript), TranscriptDigest(pub, ref.Transcript)) {
		t.Error("session and batch transcripts differ despite identical material and seed")
	}
	if err := Audit(pub, res.Transcript); err != nil {
		t.Errorf("audit failed: %v", err)
	}
}

// TestSessionEagerPayloadRejection: a client that equivocates between board
// and payload is turned away at the door with an attributable verdict —
// before any prover exists — instead of poisoning Finalize like the batch
// path's mid-run abort. Its public part never reaches the bulletin board
// (a payload dispute is not publicly attributable), so the transcript still
// audits cleanly.
func TestSessionEagerPayloadRejection(t *testing.T) {
	pub := testPublic(t, 2, 1, 6)
	sess, err := NewSession(pub, SessionOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	good, err := pub.NewClientSubmission(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(context.Background(), good); err != nil {
		t.Fatal(err)
	}

	bad, err := pub.NewClientSubmission(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := pub.Field()
	bad.Payloads[1].Openings[0].X = bad.Payloads[1].Openings[0].X.Add(f.One())
	if err := sess.Submit(context.Background(), bad); !errors.Is(err, ErrClientReject) {
		t.Fatalf("equivocating payload accepted: %v", err)
	}

	short, err := pub.NewClientSubmission(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	short.Payloads = short.Payloads[:1]
	if err := sess.Submit(context.Background(), short); !errors.Is(err, ErrClientReject) {
		t.Fatalf("short payload set accepted: %v", err)
	}

	// The reserved IDs cannot be replayed after rejection.
	if err := sess.Submit(context.Background(), bad); !errors.Is(err, ErrClientReject) {
		t.Fatalf("rejected client resubmitted: %v", err)
	}

	res, err := sess.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RejectedClients) != 2 {
		t.Errorf("rejections %v, want clients 1 and 2", res.RejectedClients)
	}
	if len(res.Transcript.Clients) != 1 || res.Transcript.Clients[0].ID != 0 {
		t.Errorf("bulletin board has %d entries, want only client 0 (payload disputes are never posted)",
			len(res.Transcript.Clients))
	}
	// Only the honest client counts: raw ∈ [1, 1 + 2·6].
	if res.Release.Raw[0] < 1 || res.Release.Raw[0] > 13 {
		t.Errorf("raw %d outside honest envelope", res.Release.Raw[0])
	}
	if err := Audit(pub, res.Transcript); err != nil {
		t.Errorf("audit failed: %v", err)
	}
}

// TestSessionConcurrentSubmit floods one session from many goroutines (run
// under -race in CI): every verdict must be correct, the roster complete,
// and the finalized release must audit.
func TestSessionConcurrentSubmit(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	const n = 24
	subs := make([]*ClientSubmission, n)
	err := forEach(nil, 4, n, func(i int) error {
		sub, err := pub.NewClientSubmission(i, 1, nil)
		if err != nil {
			return err
		}
		subs[i] = sub
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One forged board proof hidden in the flood.
	subs[17].Public.BitProof = subs[2].Public.BitProof

	sess, err := NewSession(pub, SessionOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				verdicts[i] = sess.Submit(context.Background(), subs[i])
			}
		}(g)
	}
	wg.Wait()
	for i, v := range verdicts {
		if i == 17 {
			if !errors.Is(v, ErrClientReject) {
				t.Errorf("forged client 17 verdict: %v", v)
			}
			continue
		}
		if v != nil {
			t.Errorf("honest client %d rejected: %v", i, v)
		}
	}
	if got := sess.Submitted(); got != n {
		t.Errorf("session admitted %d clients, want %d", got, n)
	}
	res, err := sess.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RejectedClients) != 1 || res.RejectedClients[17] == nil {
		t.Errorf("rejections %v, want exactly client 17", res.RejectedClients)
	}
	// n-1 honest ones → raw ∈ [n-1, n-1 + 2·4].
	if res.Release.Raw[0] < n-1 || res.Release.Raw[0] > n-1+8 {
		t.Errorf("raw %d outside [%d, %d]", res.Release.Raw[0], n-1, n-1+8)
	}
	if err := Audit(pub, res.Transcript); err != nil {
		t.Errorf("audit failed: %v", err)
	}
}

// TestSessionCancellation is the cancellation acceptance criterion: Submit
// and Finalize return promptly with ctx.Err() when their context is
// cancelled mid-stage — and a cancelled Finalize leaves the session open so
// the epoch can be retried (deterministically, to the same transcript).
func TestSessionCancellation(t *testing.T) {
	pub := testPublic(t, 2, 1, 16)
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(12), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	sub0, err := sess.NewClientSubmission(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(cancelled, sub0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit under cancelled ctx: %v, want context.Canceled", err)
	}
	// The cancelled Submit was withdrawn: the same client resubmits cleanly.
	if err := sess.Submit(context.Background(), sub0); err != nil {
		t.Fatalf("resubmit after cancellation: %v", err)
	}
	for i := 1; i < 6; i++ {
		sub, err := sess.NewClientSubmission(i, i%2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Submit(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
	}

	// Cancel at successive checkpoints: whichever stage the Nth poll lands
	// in, Finalize must surface context.Canceled, not a protocol error or a
	// release.
	for _, polls := range []int{0, 1, 3, 7, 20} {
		if _, err := sess.Finalize(newCountdownCtx(polls)); !errors.Is(err, context.Canceled) {
			t.Fatalf("Finalize with cancellation after %d polls: %v, want context.Canceled", polls, err)
		}
	}

	// The cancelled epochs were not consumed: the retry completes and is
	// byte-identical to an uninterrupted run under the same seed.
	res, err := sess.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize retry after cancellation: %v", err)
	}
	if err := Audit(pub, res.Transcript); err != nil {
		t.Errorf("audit failed: %v", err)
	}
	if _, err := sess.Finalize(context.Background()); !errors.Is(err, ErrBadConfig) {
		t.Errorf("double finalize: %v, want ErrBadConfig", err)
	}
	if err := sess.Submit(context.Background(), sub0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("submit after finalize: %v, want ErrBadConfig", err)
	}
}

// TestRunContextCancellation: the batch entry points surface cancellation
// too, at every depth of the pipeline.
func TestRunContextCancellation(t *testing.T) {
	pub := testPublic(t, 2, 1, 8)
	choices := []int{1, 0, 1, 1}
	for _, polls := range []int{0, 2, 5, 11} {
		if _, err := RunContext(newCountdownCtx(polls), pub, choices, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("RunContext with cancellation after %d polls: %v, want context.Canceled", polls, err)
		}
	}
	res, err := Run(pub, choices, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := AuditContext(newCountdownCtx(1), pub, res.Transcript); !errors.Is(err, context.Canceled) {
		t.Errorf("AuditContext under cancellation: %v, want context.Canceled", err)
	}
	if err := AuditContext(context.Background(), pub, res.Transcript); err != nil {
		t.Errorf("AuditContext on honest transcript: %v", err)
	}
}

// TestSessionReset: one engine serves many epochs. Same-seed sessions agree
// epoch by epoch, different epochs never share noise substreams, and
// verdict state from one epoch does not leak into the next.
func TestSessionReset(t *testing.T) {
	pub := testPublic(t, 1, 1, 8)
	choices := []int{1, 1, 0, 1}

	runEpochs := func() [][]byte {
		sess, err := NewSession(pub, SessionOptions{Rand: testSeed(64), Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		var digests [][]byte
		for epoch := 0; epoch < 3; epoch++ {
			if got := sess.Epoch(); got != epoch {
				t.Fatalf("epoch counter %d, want %d", got, epoch)
			}
			for i, c := range choices {
				sub, err := sess.NewClientSubmission(i, c)
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.Submit(context.Background(), sub); err != nil {
					t.Fatalf("epoch %d client %d: %v", epoch, i, err)
				}
			}
			res, err := sess.Finalize(context.Background())
			if err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			if err := Audit(pub, res.Transcript); err != nil {
				t.Fatalf("epoch %d audit: %v", epoch, err)
			}
			digests = append(digests, TranscriptDigest(pub, res.Transcript))
			if err := sess.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		return digests
	}

	a, b := runEpochs(), runEpochs()
	for e := range a {
		if !bytes.Equal(a[e], b[e]) {
			t.Errorf("epoch %d not reproducible across same-seed sessions", e)
		}
	}
	for e := 1; e < len(a); e++ {
		if bytes.Equal(a[0], a[e]) {
			t.Errorf("epoch %d transcript identical to epoch 0 — epochs share noise substreams", e)
		}
	}
}

// TestSessionDuplicateSubmission: the duplicate guard holds whether or not
// the first submission was accepted.
func TestSessionDuplicateSubmission(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	sess, err := NewSession(pub, SessionOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pub.NewClientSubmission(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(context.Background(), sub); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(context.Background(), sub); !errors.Is(err, ErrClientReject) {
		t.Errorf("duplicate accepted: %v", err)
	}
	if got := sess.Submitted(); got != 1 {
		t.Errorf("duplicate changed roster size: %d", got)
	}
}

// TestForEachContextCancellation: the pool helper stops between tasks on
// cancellation and reports ctx.Err(), at every width.
func TestForEachContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := forEach(ctx, workers, 100, func(i int) error {
			if ran.Add(1) == 1 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got >= 100 {
			t.Errorf("workers=%d: all %d tasks ran despite cancellation", workers, got)
		}
		cancel()
	}
	// Task errors take precedence over a cancellation they caused.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := forEach(ctx, 3, 50, func(i int) error {
		if i == 0 {
			cancel()
			return errors.New("task 0 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "task 0 failed" {
		t.Errorf("err = %v, want task 0's own error", err)
	}
}
