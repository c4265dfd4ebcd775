package vdp

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/pedersen"
	"repro/internal/store"
)

// Benchmarks for the batched admission pipeline, in the harness form
// scripts/check_allocs.sh consumes: the decode and batch-submit guards read
// allocs/op off BenchmarkDecodeSubmissionBatch and BenchmarkSubmitBatch and
// pin the per-batch counts within 10 % of what is reached, so a refactor that
// quietly reintroduces a per-client allocation storm (one buffer per record,
// one pool task per arrival) fails CI rather than landing silently.

// benchBatchClients is the frame size the alloc guard pins; keep in sync
// with the ceilings in scripts/check_allocs.sh.
const benchBatchClients = 64

func benchBatch(b *testing.B) (*Public, []*ClientSubmission) {
	b.Helper()
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 4})
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]*ClientSubmission, benchBatchClients)
	for i := range subs {
		sub, err := pub.NewClientSubmission(i, i%2, nil)
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = sub
	}
	return pub, subs
}

func BenchmarkEncodeSubmissionBatch(b *testing.B) {
	pub, subs := benchBatch(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = pub.AppendSubmissionBatch(buf, subs)
	}
}

func BenchmarkDecodeSubmissionBatch(b *testing.B) {
	pub, subs := benchBatch(b)
	enc := pub.EncodeSubmissionBatch(subs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.DecodeSubmissionBatch(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubmitBatch(b *testing.B) {
	pub, subs := benchBatch(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
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
				b.Fatalf("honest client rejected: %v", v)
			}
		}
	}
}

// BenchmarkSubmitBatchOneBadOpening is BenchmarkSubmitBatch with one
// member equivocating: its first share opening does not match its board
// commitment. The folded check fails, so the frame pays the board-only
// re-check and the unfolded opening checks on top of it; every other member
// is still admitted.
func BenchmarkSubmitBatchOneBadOpening(b *testing.B) {
	pub, subs := benchBatch(b)
	bad := *subs[benchBatchClients/2]
	payload := *bad.Payloads[0]
	payload.Openings = append([]*pedersen.Opening{}, payload.Openings...)
	payload.Openings[0] = &pedersen.Opening{X: payload.Openings[0].X.Add(pub.Field().One()), R: payload.Openings[0].R}
	bad.Payloads = []*ClientPayload{&payload}
	subs[benchBatchClients/2] = &bad
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := NewSession(pub, SessionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		verdicts, err := sess.SubmitBatch(ctx, subs)
		if err != nil {
			b.Fatal(err)
		}
		for j, v := range verdicts {
			if (v != nil) != (j == benchBatchClients/2) {
				b.Fatalf("member %d: verdict %v", j, v)
			}
		}
	}
}

// forgeBitProof returns a copy of sub whose bit proof is forged past the
// fold's scalar checks: Z0 + 1 keeps the challenge split, so BitBatch.Add
// takes the proof and only the group equation fails.
func forgeBitProof(pub *Public, sub *ClientSubmission) *ClientSubmission {
	proof := *sub.Public.BitProof
	proof.Z0 = proof.Z0.Add(pub.Field().One())
	cp := *sub.Public
	cp.BitProof = &proof
	forged := *sub
	forged.Public = &cp
	return &forged
}

// BenchmarkSubmitBatchBadProofs is BenchmarkSubmitBatch with 0, 1 or 4
// members whose bit proof is forged (forgeBitProof). The folded check fails,
// so the frame pays the fallback that re-verifies its members one by one;
// every other member is still admitted. /0 is the honest frame.
func BenchmarkSubmitBatchBadProofs(b *testing.B) {
	pub, subs := benchBatch(b)
	ctx := context.Background()
	for _, nbad := range []int{0, 1, 4} {
		b.Run(strconv.Itoa(nbad), func(b *testing.B) {
			frame := append([]*ClientSubmission{}, subs...)
			bad := make(map[int]bool)
			for k := 0; k < nbad; k++ {
				j := 8 + 16*k // spread over the frame
				frame[j], bad[j] = forgeBitProof(pub, frame[j]), true
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess, err := NewSession(pub, SessionOptions{})
				if err != nil {
					b.Fatal(err)
				}
				verdicts, err := sess.SubmitBatch(ctx, frame)
				if err != nil {
					b.Fatal(err)
				}
				for j, v := range verdicts {
					if (v != nil) != bad[j] {
						b.Fatalf("member %d: verdict %v", j, v)
					}
				}
			}
		})
	}
}

// BenchmarkBatchVerifyClients compares sequential per-client legality
// verification against the multi-client random-linear-combination batch
// (one multi-exponentiation for the whole board) that admission runs, at 1
// and GOMAXPROCS workers, over a 256-client board.
func BenchmarkBatchVerifyClients(b *testing.B) {
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	const n = 256
	publics := make([]*ClientPublic, n)
	for i := 0; i < n; i++ {
		sub, err := pub.NewClientSubmission(i, i%2, nil)
		if err != nil {
			b.Fatal(err)
		}
		publics[i] = sub.Public
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			valid, _ := pub.FilterValidClients(publics)
			if len(valid) != n {
				b.Fatal("honest client rejected")
			}
		}
	})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("batch/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				valid, _, err := pub.filterValidClientsBatch(context.Background(), publics, workers)
				if err != nil || len(valid) != n {
					b.Fatal("honest client rejected")
				}
			}
		})
	}
}

// BenchmarkDecodeArrivalRecords reads one frame's worth of bench-shape
// arrival records (benchBatchClients of them, one coin commitment and one
// bit proof each: three points) through decodeSubmission, the decode every
// board-log reader runs per record: v2 as SubmitBatch writes them, checking
// a hint per point, and v1, the client's bytes alone, taking a square root
// per point. scripts/check_allocs.sh pins the v2 allocs/op.
func BenchmarkDecodeArrivalRecords(b *testing.B) {
	pub, subs := benchBatch(b)
	for _, v := range []struct {
		name   string
		encode func(*ClientSubmission) []byte
	}{
		{"v2", pub.EncodeClientSubmission},
		{"v1", func(sub *ClientSubmission) []byte { return encodeV1(pub, sub) }},
	} {
		recs := make([]*store.Record, len(subs))
		for i, sub := range subs {
			recs[i] = &store.Record{Kind: RecordSubmission, Payload: v.encode(sub)}
		}
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, rec := range recs {
					if d := pub.decodeSubmission(rec); d.err != nil {
						b.Fatal(d.err)
					}
				}
			}
		})
	}
}

// BenchmarkDecodeProverSection times the one transcript parser on one
// goroutine over a bench-shape seal (one prover, one bin, 256 coins: 1 280
// prover-section points), the decode every seal reader runs: v2 as Finalize
// writes it, checking a hint per point, and v1, the seal's body alone,
// taking a square root per point. scripts/check_allocs.sh pins the v2
// allocs/op.
func BenchmarkDecodeProverSection(b *testing.B) {
	ctx := context.Background()
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 256})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := NewSession(pub, SessionOptions{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		sub, err := pub.NewClientSubmission(id, id%2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Submit(ctx, sub); err != nil {
			b.Fatal(err)
		}
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		b.Fatal(err)
	}
	seal := pub.EncodeTranscript(res.Transcript)
	body, _ := sealParts(seal)
	for _, v := range []struct {
		name string
		seal []byte
	}{{"v2", seal}, {"v1", body}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := pub.decodeProverSection(v.seal, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
