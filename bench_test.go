package verifiabledp

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, driving the experiment implementations in
// internal/experiments at Quick scale so `go test -bench=.` terminates in
// minutes. Run `go run ./cmd/vdpbench -scale standard` (or -scale paper)
// for the larger workloads; EXPERIMENTS.md records measured-vs-paper.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
	"repro/internal/vdp"
)

// BenchmarkTable1 regenerates Table 1: per-stage latency of ΠBin
// (Σ-proof, Σ-verification, Morra, Aggregation, Check).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1AtScale(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: Σ-OR proof creation/verification
// cost as a function of ε (nb ∝ 1/ε²).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3AtScale(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: per-client one-hot validation
// cost vs dimension M, Σ-OR against the PRIO/Poplar sketch baseline.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4AtScale(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkTable2 regenerates the executable property matrix of Table 2
// (attack scenarios run against each protocol).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkMicroExp regenerates the §6 microbenchmark: one exponentiation
// in the finite-field vs elliptic-curve commitment group.
func BenchmarkMicroExp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Microbench()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkDPError regenerates the §7 error series: central O(1) error vs
// local O(√n).
func BenchmarkDPError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DPErrorAtScale(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkEndToEndCount measures a complete verifiable count (clients,
// curator, verifier, Morra, audit) at a small deployment size.
func BenchmarkEndToEndCount(b *testing.B) {
	bits := make([]bool, 16)
	for i := range bits {
		bits[i] = i%2 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Count(bits, Options{Coins: 16})
		if err != nil {
			b.Fatal(err)
		}
		if err := Audit(res.Public, res.Transcript); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndMPCHistogram measures a 2-server, 3-bin verifiable
// histogram end to end.
func BenchmarkEndToEndMPCHistogram(b *testing.B) {
	choices := []int{0, 1, 2, 2, 1, 0, 2, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Histogram(choices, 3, Options{Servers: 2, Coins: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := Audit(res.Public, res.Transcript); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWorkers sweeps Run's worker-pool width on
// a fixed n=256-client verifiable count over P-256 (the workload of the
// parallel-speedup acceptance test; see EXPERIMENTS.md for recorded
// speedups). Each iteration is a complete end-to-end run: client submission
// generation, admission, prover stages, and every verifier check.
func BenchmarkEngineWorkers(b *testing.B) {
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 32})
	if err != nil {
		b.Fatal(err)
	}
	choices := make([]int, 256)
	for i := range choices {
		if i%3 == 0 {
			choices[i] = 1
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(pub, choices, &RunOptions{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Release.Raw[0] < 86 { // 86 true ones + non-negative noise
					b.Fatal("release below true count")
				}
			}
		})
	}
}

// BenchmarkSessionSubmit measures the amortized cost of admitting one
// client over a 64-submission board. "eager" submits one client at a time:
// every submission is verified the moment it arrives, its verdict returned
// to the client. "batch-at-finalize" admits the same 64 clients as one
// SubmitBatch — one random-linear-combination check over the whole
// board's Σ-OR proofs and share openings — which is how Run admits its
// clients. The batch's ns/op is lower — that is exactly the
// latency-vs-throughput trade the Session API makes explicit — and the gap
// is the price of per-submission verdicts. Divide ns/op by 64 for
// per-submission cost.
func BenchmarkSessionSubmit(b *testing.B) {
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	subs := make([]*ClientSubmission, n)
	for i := 0; i < n; i++ {
		sub, err := pub.NewClientSubmission(i, i%2, nil)
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = sub
	}
	ctx := context.Background()
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess, err := NewSession(pub, SessionOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for _, sub := range subs {
				if err := sess.Submit(ctx, sub); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-at-finalize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess, err := NewSession(pub, SessionOptions{})
			if err != nil {
				b.Fatal(err)
			}
			verdicts, err := sess.SubmitBatch(ctx, subs)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range verdicts {
				if v != nil {
					b.Fatal(v)
				}
			}
		}
	})
}

// BenchmarkStoreReplay measures raw board-log replay throughput: 10k framed,
// CRC-checked records streamed back from disk. This bounds how fast a
// restarted server can re-read its bulletin board before any crypto runs.
func BenchmarkStoreReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "board.log")
	logFile, err := store.OpenFileLog(path, store.WithNoSync())
	if err != nil {
		b.Fatal(err)
	}
	const records = 10000
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < records; i++ {
		if err := logFile.Append(&store.Record{Kind: 1, Epoch: 0, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := logFile.Replay(func(rec *store.Record) error {
			n++
			return nil
		})
		if err != nil || n != records {
			b.Fatalf("replay: n=%d err=%v", n, err)
		}
	}
	b.StopTimer()
	logFile.Close()
	b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSessionRecovery measures ResumeSession over a file-backed board
// of 64 eagerly-verified submissions: the time from "process restarted" to
// "session ready to accept client 65". Verdicts are already persisted, so
// recovery is pure replay + decode — no proof re-verification.
func BenchmarkSessionRecovery(b *testing.B) {
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	path := filepath.Join(b.TempDir(), "board.log")
	logFile, err := store.OpenFileLog(path, store.WithNoSync())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sess, err := NewSession(pub, SessionOptions{Store: logFile})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sub, err := pub.NewClientSubmission(i, i%2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Submit(ctx, sub); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resumed, err := vdp.ResumeSession(ctx, pub, SessionOptions{Store: logFile})
		if err != nil {
			b.Fatal(err)
		}
		if resumed.Submitted() != n {
			b.Fatalf("recovered %d submissions, want %d", resumed.Submitted(), n)
		}
	}
	b.StopTimer()
	logFile.Close()
}

// BenchmarkSessionRecoverySealed is BenchmarkSessionRecovery for a sealed
// epoch at the bench/ node-batch64 shape: 1024 submissions admitted in
// frames of 64 under 256 coins, then finalized, on a file-backed board
// without fsync. Recovery decodes every arrival record and the seal's prover
// section; the sealed transcript reuses the arrivals' decoded clients.
func BenchmarkSessionRecoverySealed(b *testing.B) {
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 256})
	if err != nil {
		b.Fatal(err)
	}
	const n, frame = 1024, 64
	path := filepath.Join(b.TempDir(), "board.log")
	logFile, err := store.OpenFileLog(path, store.WithNoSync())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sess, err := NewSession(pub, SessionOptions{Store: logFile})
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]*ClientSubmission, n)
	for i := range subs {
		if subs[i], err = pub.NewClientSubmission(i, i%2, nil); err != nil {
			b.Fatal(err)
		}
	}
	for off := 0; off < n; off += frame {
		verdicts, err := sess.SubmitBatch(ctx, subs[off:off+frame])
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range verdicts {
			if v != nil {
				b.Fatal(v)
			}
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resumed, err := vdp.ResumeSession(ctx, pub, SessionOptions{Store: logFile})
		if err != nil {
			b.Fatal(err)
		}
		if !resumed.Finalized() || len(resumed.SealedTranscript().Clients) != n {
			b.Fatalf("resumed finalized = %v, want a sealed epoch of %d clients", resumed.Finalized(), n)
		}
	}
	b.StopTimer()
	logFile.Close()
}

// BenchmarkCheatDetection measures how quickly the verifier catches a
// biased-output prover — the cost of the security guarantee.
func BenchmarkCheatDetection(b *testing.B) {
	pub, err := Setup(Config{Provers: 2, Bins: 1, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	choices := []int{1, 0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(pub, choices, &RunOptions{Malice: map[int]Malice{1: {OutputBias: 5}}})
		if !errors.Is(err, vdp.ErrProverCheat) {
			b.Fatal("cheat not detected")
		}
	}
}
