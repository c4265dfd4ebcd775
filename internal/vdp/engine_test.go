package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/field"
)

// testSeed returns a deterministic io.Reader suitable for RunOptions.Rand:
// the engine reads a 32-byte root seed from it and derives per-task
// substreams, so equal tags must yield equal transcripts.
func testSeed(tag byte) *hashStream {
	s := &hashStream{}
	for i := range s.key {
		s.key[i] = tag ^ byte(i*7)
	}
	return s
}

// TestEngineDeterministicTranscript: with a fixed seed the transcript is
// byte-identical at parallelism 1, 4, and GOMAXPROCS — the engine's core
// reproducibility guarantee. Exercised for both the trusted-curator count
// and the MPC histogram (which routes through the one-hot proof path).
func TestEngineDeterministicTranscript(t *testing.T) {
	cases := []struct {
		name    string
		k, m    int
		choices []int
	}{
		{"curator-count", 1, 1, []int{1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1}},
		{"mpc-histogram", 2, 3, []int{0, 1, 2, 2, 1, 0, 2, 1, 0, 2}},
	}
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pub := testPublic(t, tc.k, tc.m, 6)
			digests := make([][]byte, len(widths))
			for i, w := range widths {
				res, err := Run(pub, tc.choices, &RunOptions{Rand: testSeed(9), Parallelism: w})
				if err != nil {
					t.Fatalf("parallelism %d: %v", w, err)
				}
				if len(res.RejectedClients) != 0 {
					t.Fatalf("parallelism %d rejected honest clients: %v", w, res.RejectedClients)
				}
				if err := Audit(pub, res.Transcript); err != nil {
					t.Fatalf("parallelism %d transcript failed audit: %v", w, err)
				}
				digests[i] = TranscriptDigest(pub, res.Transcript)
			}
			for i := 1; i < len(digests); i++ {
				if !bytes.Equal(digests[0], digests[i]) {
					t.Errorf("transcript at parallelism %d differs from parallelism %d under the same seed",
						widths[i], widths[0])
				}
			}
			// Different seed ⇒ different transcript (the digest actually
			// covers the random material).
			other, err := Run(pub, tc.choices, &RunOptions{Rand: testSeed(77), Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(digests[0], TranscriptDigest(pub, other.Transcript)) {
				t.Error("distinct seeds produced identical transcripts")
			}
		})
	}
}

// TestEngineMaliceDetectionParallel: every prover deviation of the
// Theorem 4.1 matrix is still detected (with the same sentinel) when the
// stages fan out over a worker pool.
func TestEngineMaliceDetectionParallel(t *testing.T) {
	cases := map[string]Malice{
		"non-bit-coin":    {NonBitCoin: true},
		"output-bias":     {OutputBias: 7},
		"negative-bias":   {OutputBias: -3},
		"randomness-bias": {RandomnessBias: true},
		"drop-client":     {DropClient: true, DropClientID: 2},
		"skip-noise":      {SkipNoise: true},
		"combined-attack": {OutputBias: 1, RandomnessBias: true},
	}
	choices := []int{1, 0, 1, 1, 0}
	for name, malice := range cases {
		malice := malice
		t.Run(name, func(t *testing.T) {
			pub := testPublic(t, 2, 1, 8)
			_, err := Run(pub, choices, &RunOptions{
				Malice:      map[int]Malice{1: malice},
				Parallelism: 4,
			})
			if !errors.Is(err, ErrProverCheat) {
				t.Errorf("malice %q not detected under parallel execution (err = %v)", name, err)
			}
		})
	}
	// A biased *private* coin remains legal under parallel execution too.
	pub := testPublic(t, 2, 1, 8)
	res, err := Run(pub, choices, &RunOptions{
		Malice:      map[int]Malice{0: {BiasPrivateBits: true}},
		Parallelism: 4,
	})
	if err != nil {
		t.Fatalf("biased private bits wrongly rejected in parallel: %v", err)
	}
	if err := Audit(pub, res.Transcript); err != nil {
		t.Errorf("transcript failed audit: %v", err)
	}
}

// TestBatchedClientVerifyForgery: a single forged legality proof hidden
// among many valid submissions is pinned on exactly its author by the
// batched verifier, for both the bit-proof (M=1) and one-hot (M≥2) paths,
// at several worker widths.
func TestBatchedClientVerifyForgery(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    int
	}{{"bit", 1}, {"one-hot", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			pub := testPublic(t, 2, tc.m, 4)
			const n = 24
			publics := make([]*ClientPublic, n)
			for i := 0; i < n; i++ {
				sub, err := pub.NewClientSubmission(i, i%tc.m, nil)
				if err != nil {
					t.Fatal(err)
				}
				publics[i] = sub.Public
			}
			// Transplant client 20's proof onto client 7: individually
			// well-formed, but bound to the wrong statement and context.
			if tc.m == 1 {
				publics[7].BitProof = publics[20].BitProof
			} else {
				publics[7].OneHotProof = publics[20].OneHotProof
			}
			wantValid, wantRejected := pub.FilterValidClients(publics)
			if len(wantRejected) != 1 || wantRejected[7] == nil {
				t.Fatalf("sequential reference did not isolate client 7: %v", wantRejected)
			}
			for _, workers := range []int{1, 4} {
				valid, rejected, err := pub.filterValidClientsBatch(nil, publics, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(valid) != len(wantValid) {
					t.Errorf("workers=%d: batch accepted %d clients, sequential %d", workers, len(valid), len(wantValid))
				}
				if len(rejected) != 1 || rejected[7] == nil {
					t.Errorf("workers=%d: batch rejections %v, want exactly client 7", workers, rejected)
				}
				if !errors.Is(rejected[7], ErrClientReject) {
					t.Errorf("workers=%d: rejection not attributable: %v", workers, rejected[7])
				}
			}
		})
	}
}

// TestEngineClientRejectionParallel: a forged submission among many is
// excluded from the roster without aborting the parallel run, and the
// release still audits.
func TestEngineClientRejectionParallel(t *testing.T) {
	pub := testPublic(t, 2, 1, 8)
	const n = 16
	publics := make([]*ClientPublic, n)
	payloads := make(map[int][]*ClientPayload, n)
	for i := 0; i < n; i++ {
		sub, err := pub.NewClientSubmission(i, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		publics[i] = sub.Public
		payloads[i] = sub.Payloads
	}
	publics[5].BitProof = publics[11].BitProof
	res, err := RunWithSubmissions(pub, publics, payloads, &RunOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RejectedClients) != 1 || res.RejectedClients[5] == nil {
		t.Fatalf("rejections %v, want exactly client 5", res.RejectedClients)
	}
	// n-1 valid ones → raw ∈ [n-1, n-1+2·8].
	if res.Release.Raw[0] < n-1 || res.Release.Raw[0] > n-1+16 {
		t.Errorf("raw %d outside [%d, %d]", res.Release.Raw[0], n-1, n-1+16)
	}
	if err := AuditParallel(pub, res.Transcript, 4); err != nil {
		t.Errorf("audit failed: %v", err)
	}
}

// TestRunPayloadDisputeVerdict: Run admits its clients with Session's one
// admission rule. A client whose prover-1 share opening does not match its
// commitment is refused off the board — the run completes, reports exactly
// that client with SubmitBatch's reason, and seals the transcript an eager
// Session seals for the same material and seed — while a nil or duplicate
// member still fails the run.
func TestRunPayloadDisputeVerdict(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	subs := buildSubs(t, pub, []int{1, 0, 1, 1})
	subs[1].Payloads[1] = &ClientPayload{ClientID: 1, Prover: 1, Openings: subs[3].Payloads[1].Openings}
	publics := make([]*ClientPublic, len(subs))
	payloads := make(map[int][]*ClientPayload, len(subs))
	for i, sub := range subs {
		publics[i], payloads[sub.Public.ID] = sub.Public, sub.Payloads
	}

	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(5), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var verdict error
	for _, sub := range subs {
		if err := sess.Submit(ctx, sub); sub.Public.ID == 1 {
			verdict = err
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(verdict, ErrClientReject) {
		t.Fatalf("eager verdict for the tampered opening = %v, want ErrClientReject", verdict)
	}
	want, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunWithSubmissions(pub, publics, payloads, &RunOptions{Rand: testSeed(5), Parallelism: 2})
	if err != nil {
		t.Fatalf("a payload dispute failed the run: %v", err)
	}
	if len(res.RejectedClients) != 1 || res.RejectedClients[1] == nil || res.RejectedClients[1].Error() != verdict.Error() {
		t.Fatalf("rejections %v, want exactly client 1: %v", res.RejectedClients, verdict)
	}
	for _, cp := range res.Transcript.Clients {
		if cp.ID == 1 {
			t.Fatal("the refused client reached the board")
		}
	}
	if err := Audit(pub, res.Transcript); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if !bytes.Equal(TranscriptDigest(pub, res.Transcript), TranscriptDigest(pub, want.Transcript)) {
		t.Fatal("Run and the eager Session sealed different transcripts")
	}

	for name, board := range map[string][]*ClientPublic{
		"duplicate": append(append([]*ClientPublic(nil), publics...), publics[2]),
		"nil":       append([]*ClientPublic{nil}, publics...),
	} {
		if _, err := RunWithSubmissions(pub, board, payloads, &RunOptions{Rand: testSeed(5)}); !errors.Is(err, ErrClientReject) {
			t.Errorf("%s member: err = %v, want the run to fail with ErrClientReject", name, err)
		}
	}
}

// TestAuditParallelMatchesSequential: parallel and sequential audits agree
// on honest and tampered transcripts.
func TestAuditParallelMatchesSequential(t *testing.T) {
	pub := testPublic(t, 2, 1, 8)
	res, err := Run(pub, []int{1, 0, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if err := AuditParallel(pub, res.Transcript, workers); err != nil {
			t.Errorf("workers=%d: honest transcript failed audit: %v", workers, err)
		}
	}
	// Tamper with prover 1's output: both widths must reject.
	cp := *res.Transcript
	outs := append([]*ProverOutput{}, cp.Outputs...)
	f := pub.Field()
	outs[1] = &ProverOutput{Prover: 1, Y: []*field.Element{outs[1].Y[0].Add(f.One())}, Z: outs[1].Z}
	cp.Outputs = outs
	for _, workers := range []int{1, 4} {
		if err := AuditParallel(pub, &cp, workers); !errors.Is(err, ErrAuditFail) {
			t.Errorf("workers=%d: tampered transcript passed audit: %v", workers, err)
		}
	}
}

// TestForEachDeterministicError: the pool helper always surfaces the
// lowest-index error, regardless of width, and skips unstarted work after a
// failure.
func TestForEachDeterministicError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var ran atomic.Int64
		err := forEach(nil, workers, 100, func(i int) error {
			ran.Add(1)
			if i == 13 || i == 57 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 13 failed" {
			t.Errorf("workers=%d: err = %v, want task 13", workers, err)
		}
		if workers == 1 && ran.Load() != 14 {
			t.Errorf("sequential mode ran %d tasks, want fail-fast 14", ran.Load())
		}
	}
	// All tasks run when none fail.
	var ran atomic.Int64
	if err := forEach(nil, 4, 50, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Errorf("ran %d tasks, want 50", ran.Load())
	}
}
