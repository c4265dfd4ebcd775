package vdp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sigma"
)

// poolWidth resolves a worker-pool width: workers <= 0 selects
// runtime.GOMAXPROCS(0), and a width of 1 is sequential execution.
func poolWidth(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ctxErr reports the context's cancellation state; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// forEach runs fn(i) for every i in [0, n) across up to `workers`
// goroutines pulling indices from a shared counter. Once any task records an
// error, unstarted tasks are skipped; a cancelled ctx likewise stops the
// pool between tasks. The returned error is the recorded error with the
// lowest index, so blame attribution does not depend on scheduling; when the
// pool stopped because ctx was cancelled (and no task failed first), the
// return is ctx.Err(). workers <= 1 (or n <= 1) runs inline with fail-fast.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next, done atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctxErr(ctx) != nil {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if int(done.Load()) < n {
		// Tasks were skipped without any recording an error, which only
		// happens on cancellation.
		return ctxErr(ctx)
	}
	return nil
}

// prove is Finalize's prover stage: ΠBin from the decided roster on, as a
// staged pipeline over the session's worker pool. Admission already fixed
// Line 3 — board is the epoch's bulletin board, valid the members holding
// accepting verdicts, whose share openings SubmitBatch checked — so the
// stages left mirror the rest of Figure 2:
//
//	provers ingest the valid clients' payloads
//	         │
//	         ▼
//	commit coins (fan out per prover×bin×coin)  ─►  batched Σ-OR verify
//	         │
//	         ▼
//	Morra public coins (fan out per prover)
//	         │
//	         ▼
//	Finalize + Line-13 product check (fan out per prover)
//	         │
//	         ▼
//	Aggregate → Release + Transcript
//
// Stages are separated by barriers, so the verifier's checks for stage s
// happen before any prover advances to stage s+1 — the ordering the
// sequential protocol enforces, so a cheating prover is accused at the same
// stage, wrapped in the same sentinel error, at every pool width.
//
// Determinism: all task randomness comes from per-task substreams keyed by
// (label, index) — never by schedule (see rand.go) — so with a fixed seed the
// transcript is byte-identical at every worker count.
//
// Cancellation: every stage boundary and every pool task is a checkpoint
// against ctx; a cancelled ctx returns ctx.Err() promptly.
func (s *Session) prove(ctx context.Context, board []*ClientPublic, valid []*sessionClient, rs *randSource) (*Transcript, error) {
	pub := s.pub
	k := pub.cfg.Provers
	m := pub.cfg.Bins
	nb := pub.nb
	verifier := NewVerifierParallel(pub, s.workers)

	// The provers ingest the valid clients' payloads, and Line 13's client
	// factor is the product of the same clients' share commitments.
	provers := make([]*Prover, k)
	for pk := 0; pk < k; pk++ {
		pr, err := NewMaliciousProver(pub, pk, s.opts.Malice[pk])
		if err != nil {
			return nil, err
		}
		for _, cl := range valid {
			if err := pr.acceptChecked(cl.public, cl.payloads[pk]); err != nil {
				return nil, err
			}
		}
		provers[pk] = pr
	}
	prod := pub.newClientProduct()
	for _, cl := range valid {
		prod.add(cl.public)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	tr := &Transcript{Clients: board}

	// Lines 4-6: coin commitments — every (prover, bin, coin) task is
	// independent — then one batched Σ-OR verification per prover.
	type coinSlot struct {
		cn    *coin
		proof *sigma.BitProof
	}
	slots := make([]coinSlot, k*m*nb)
	err := forEach(ctx, s.workers, len(slots), func(t int) error {
		pk := t / (m * nb)
		j := (t % (m * nb)) / nb
		l := t % nb
		cn, proof, err := provers[pk].commitCoin(j, l, rs.stream(labelCoin, t))
		if err != nil {
			return err
		}
		slots[t] = coinSlot{cn: cn, proof: proof}
		return nil
	})
	if err != nil {
		return nil, err
	}
	coinMsgs := make([]*CoinCommitMsg, k)
	for pk := 0; pk < k; pk++ {
		coins := make([][]*coin, m)
		proofs := make([][]*sigma.BitProof, m)
		for j := 0; j < m; j++ {
			coins[j] = make([]*coin, nb)
			proofs[j] = make([]*sigma.BitProof, nb)
			for l := 0; l < nb; l++ {
				slot := slots[(pk*m+j)*nb+l]
				coins[j][l] = slot.cn
				proofs[j][l] = slot.proof
			}
		}
		msg, err := provers[pk].installCoins(coins, proofs)
		if err != nil {
			return nil, err
		}
		coinMsgs[pk] = msg
		if err := verifier.VerifyCoinCommitments(msg); err != nil {
			return nil, err
		}
	}
	tr.CoinMsgs = coinMsgs
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Lines 7-8: per-prover Morra with the verifier for M·nb public bits.
	// The K instances are independent 2-party protocols; each gets its
	// share of the pool, as in checkSeal.
	publicBits := make([][][]byte, k)
	morraRecs := make([]*MorraRecord, k)
	err = forEach(ctx, s.workers, k, func(pk int) error {
		bits, record, err := runMorra(ctx, pub, pk, m*nb, rs, max(s.workers/k, 1))
		if err != nil {
			return err
		}
		morraRecs[pk] = record
		publicBits[pk] = reshapeBits(bits, m, nb)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pk := 0; pk < k; pk++ {
		if err := provers[pk].SetPublicCoins(publicBits[pk]); err != nil {
			return nil, err
		}
	}
	tr.Morra = morraRecs
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Lines 9-13: outputs and the final commitment-product check, one task
	// per prover.
	outputs := make([]*ProverOutput, k)
	err = forEach(ctx, s.workers, k, func(pk int) error {
		out, err := provers[pk].Finalize()
		if err != nil {
			return err
		}
		outputs[pk] = out
		return verifier.checkLine13(coinMsgs[pk], publicBits[pk], out, prod[pk])
	})
	if err != nil {
		return nil, err
	}
	tr.Outputs = outputs

	if tr.Release, err = verifier.Aggregate(outputs); err != nil {
		return nil, err
	}
	return tr, nil
}
