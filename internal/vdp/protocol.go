package vdp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/morra"
)

// MorraRecord is the public transcript of one O_morra realisation: the
// 2-party Πmorra run between a prover and the verifier that produced the
// prover's public coins. Recording the commit and reveal messages lets any
// auditor recompute the coins and verify nobody equivocated.
type MorraRecord struct {
	Prover  int
	Commits []*morra.CommitMsg
	Reveals []*morra.RevealMsg
}

// Transcript is the complete public record of a ΠBin execution — exactly
// the bulletin-board contents. Audit re-derives every verifier verdict from
// it, so a release is trustworthy iff its transcript audits cleanly.
type Transcript struct {
	Clients  []*ClientPublic
	CoinMsgs []*CoinCommitMsg // one per prover, indexed by position
	Morra    []*MorraRecord   // one per prover
	Outputs  []*ProverOutput  // one per prover
	Release  *Release
}

// RunOptions configures a local protocol execution.
type RunOptions struct {
	// Malice assigns deviations to prover indices; absent provers are
	// honest.
	Malice map[int]Malice
	// Rand is the randomness source (nil = crypto/rand). When set, a
	// single root seed is read from it and expanded into independent
	// per-task substreams (see rand.go), so the same seed produces a
	// byte-identical transcript at every Parallelism setting.
	Rand io.Reader
	// Parallelism is the worker-pool width of the run's session:
	// 0 selects runtime.GOMAXPROCS(0), 1 forces sequential execution.
	Parallelism int
}

// RunResult is the outcome of a successful protocol execution.
type RunResult struct {
	Release         *Release
	Transcript      *Transcript
	RejectedClients map[int]error
}

// Run executes a full ΠBin instance locally: clients with the given
// choices, K provers, and the public verifier, with Morra realising the
// public-coin oracle. It returns an ErrProverCheat-wrapped error the moment
// the verifier detects a misbehaving prover (which is the point: malice
// must never produce a silent wrong answer). Rejected clients do not abort
// the run; they are excluded from the public roster and reported.
//
// Run is a one-epoch Session: the clients' submissions are built on its
// worker pool, admitted as one SubmitBatch — one folded check of every
// board proof and share opening — and finalized. Callers that receive
// submissions incrementally should hold a Session instead.
// RunOptions.Parallelism sets the pool width; the default uses every core.
func Run(pub *Public, choices []int, opts *RunOptions) (*RunResult, error) {
	return RunContext(context.Background(), pub, choices, opts)
}

// RunContext is Run with cancellation: every stage checks ctx and returns
// ctx.Err() promptly once it is cancelled.
func RunContext(ctx context.Context, pub *Public, choices []int, opts *RunOptions) (*RunResult, error) {
	sess, err := runSession(pub, opts)
	if err != nil {
		return nil, err
	}
	// Each client's commitments and Σ-proofs are independent; substream i
	// makes client i's material a pure function of (seed, i).
	subs := make([]*ClientSubmission, len(choices))
	err = forEach(ctx, sess.workers, len(choices), func(i int) error {
		sub, err := sess.NewClientSubmission(i, choices[i])
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		subs[i] = sub
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sess.runBatch(ctx, subs)
}

// RunWithSubmissions executes the protocol over pre-built client material,
// allowing tests to inject malformed or adversarial client submissions.
// payloads maps client ID to its K per-prover payloads. Each client gets the
// verdict SubmitBatch gives it: a failed board proof keeps the client on the
// board, rejected; a payload dispute refuses it off the board; both are
// reported in RejectedClients. A nil or duplicate member fails the run.
func RunWithSubmissions(pub *Public, publics []*ClientPublic, payloads map[int][]*ClientPayload, opts *RunOptions) (*RunResult, error) {
	return RunWithSubmissionsContext(context.Background(), pub, publics, payloads, opts)
}

// RunWithSubmissionsContext is RunWithSubmissions with cancellation.
func RunWithSubmissionsContext(ctx context.Context, pub *Public, publics []*ClientPublic, payloads map[int][]*ClientPayload, opts *RunOptions) (*RunResult, error) {
	sess, err := runSession(pub, opts)
	if err != nil {
		return nil, err
	}
	subs := make([]*ClientSubmission, len(publics))
	for i, cp := range publics {
		subs[i] = &ClientSubmission{Public: cp}
		if cp != nil {
			subs[i].Payloads = payloads[cp.ID]
		}
	}
	return sess.runBatch(ctx, subs)
}

// runSession opens the one-epoch session behind Run and RunWithSubmissions.
func runSession(pub *Public, opts *RunOptions) (*Session, error) {
	if opts == nil {
		opts = &RunOptions{}
	}
	return NewSession(pub, SessionOptions{Parallelism: opts.Parallelism, Rand: opts.Rand, Malice: opts.Malice})
}

// runBatch admits subs as one batch and finalizes the epoch. Every verdict
// the session records is the release's to report; a verdict it did not
// record refused the member itself — a nil or duplicate submission — and
// fails the run.
func (s *Session) runBatch(ctx context.Context, subs []*ClientSubmission) (*RunResult, error) {
	verdicts, err := s.SubmitBatch(ctx, subs)
	if err != nil {
		return nil, err
	}
	recorded := s.Rejected()
	for i, v := range verdicts {
		if v != nil && (subs[i].Public == nil || recorded[subs[i].Public.ID] != v) {
			return nil, v
		}
	}
	return s.Finalize(ctx)
}

// runMorra executes the 2-party Πmorra between prover pk and the verifier,
// returning the flat bit string and the public record. Each party draws
// from its own substream (labelMorra, 2·pk + party), so the two parties
// commit concurrently and concurrent Morra instances stay deterministic
// under a fixed seed. workers is the width of both the commit fan-out and
// the batched opening check.
func runMorra(ctx context.Context, pub *Public, pk, batch int, rs *randSource, workers int) ([]byte, *MorraRecord, error) {
	parties := make([]*morra.Party, 2)
	commits := make([]*morra.CommitMsg, 2)
	err := forEach(ctx, workers, len(parties), func(i int) error {
		p, err := morra.NewParty(pub.pp, i, 2, batch)
		if err != nil {
			return err
		}
		cm, err := p.Commit(rs.stream(labelMorra, 2*pk+i))
		if err != nil {
			return err
		}
		parties[i], commits[i] = p, cm
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	reveals := make([]*morra.RevealMsg, 2)
	for i := 1; i >= 0; i-- { // reverse reveal order per Algorithm 1
		rv, err := parties[i].Reveal()
		if err != nil {
			return nil, nil, err
		}
		reveals[i] = rv
	}
	xs, err := morra.Combine(pub.pp, commits, reveals, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: morra with prover %d: %v", ErrProverCheat, pk, err)
	}
	return morra.Bits(xs), &MorraRecord{Prover: pk, Commits: commits, Reveals: reveals}, nil
}

// reshapeBits splits a flat bit string into [bins][nb].
func reshapeBits(bits []byte, bins, nb int) [][]byte {
	out := make([][]byte, bins)
	for j := 0; j < bins; j++ {
		out[j] = bits[j*nb : (j+1)*nb]
	}
	return out
}

// Audit replays every public verification step from a transcript: client
// legality, coin-commitment Σ-OR proofs, Morra opening checks and coin
// recomputation, the Line 13 product check for every prover, and the final
// aggregation. It returns nil iff an independent auditor would accept the
// release. This function is the "Auditable" column of Table 2 made
// executable. It uses every core; AuditParallel controls the width.
func Audit(pub *Public, t *Transcript) error { return AuditParallel(pub, t, 0) }

// AuditContext is Audit with cancellation: a cancelled ctx aborts the
// replay between checks and returns ctx.Err() instead of a verdict.
func AuditContext(ctx context.Context, pub *Public, t *Transcript) error {
	return auditParallel(ctx, pub, t, 0)
}

// AuditParallel is Audit over an explicit worker-pool width (0 =
// GOMAXPROCS, 1 = sequential). The client board is decided by one batched
// Σ-OR check, per-prover records are audited concurrently, and the verdict
// is identical at every width.
func AuditParallel(pub *Public, t *Transcript, workers int) error {
	return auditParallel(context.Background(), pub, t, workers)
}

func auditParallel(ctx context.Context, pub *Public, t *Transcript, workers int) error {
	if t == nil || t.Release == nil {
		return fmt.Errorf("%w: empty transcript", ErrAuditFail)
	}
	workers = poolWidth(workers)
	valid, _, err := pub.filterValidClientsBatch(ctx, t.Clients, workers)
	if err != nil {
		return err
	}
	prod := pub.newClientProduct()
	for _, cp := range valid {
		prod.add(cp)
	}
	if err = pub.checkSeal(ctx, t, prod, workers); err == nil || err == ctxErr(ctx) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrAuditFail, err)
}

// checkSeal is the one seal check: everything a transcript holds beyond its
// client section, given Line 13's client factor prod. Each prover's coin
// proofs, its Morra record and the coins it yields, and Line 13 for every
// bin are checked concurrently on workers, then the release is recomputed
// by Aggregate. auditParallel calls it with the product of the clients it
// verified, the epoch verifier with the product it folded as verdicts
// landed. A cancelled ctx returns ctx.Err().
func (p *Public) checkSeal(ctx context.Context, t *Transcript, prod clientProduct, workers int) error {
	k, m, nb := p.cfg.Provers, p.cfg.Bins, p.nb
	if len(t.CoinMsgs) != k || len(t.Morra) != k || len(t.Outputs) != k {
		return fmt.Errorf("transcript covers %d/%d/%d prover records, want %d", len(t.CoinMsgs), len(t.Morra), len(t.Outputs), k)
	}
	if t.Release == nil {
		return fmt.Errorf("transcript carries no release")
	}
	// The per-prover records are checked concurrently, so divide the
	// multiexp-chunking width among the outer tasks: nesting W-wide chunking
	// inside a W-wide fan-out would repeat the shared squaring chain W times
	// over with no latency gain.
	width := max(workers/k, 1)
	pv := NewVerifierParallel(p, width)
	err := forEach(ctx, workers, k, func(pk int) error {
		msg, out := t.CoinMsgs[pk], t.Outputs[pk]
		if msg.Prover != pk || out.Prover != pk {
			return fmt.Errorf("coin message and output %d claim provers %d and %d", pk, msg.Prover, out.Prover)
		}
		if err := pv.VerifyCoinCommitments(msg); err != nil {
			return err
		}
		rec := t.Morra[pk]
		xs, err := morra.Combine(p.pp, rec.Commits, rec.Reveals, width)
		if err != nil {
			return fmt.Errorf("morra record for prover %d: %v", pk, err)
		}
		bits := morra.Bits(xs)
		if len(bits) != m*nb {
			return fmt.Errorf("morra record for prover %d has %d coins, want %d", pk, len(bits), m*nb)
		}
		return pv.checkLine13(msg, reshapeBits(bits, m, nb), out, prod[pk])
	})
	if err != nil {
		return err
	}
	release, err := NewVerifierParallel(p, workers).Aggregate(t.Outputs)
	if err != nil {
		return err
	}
	if len(release.Raw) != len(t.Release.Raw) {
		return fmt.Errorf("release has %d bins, aggregation produces %d", len(t.Release.Raw), len(release.Raw))
	}
	for j := range release.Raw {
		if release.Raw[j] != t.Release.Raw[j] {
			return fmt.Errorf("release bin %d = %d, aggregation produces %d", j, t.Release.Raw[j], release.Raw[j])
		}
	}
	return nil
}
