package sigma

import (
	"crypto/rand"
	"fmt"
	"io"

	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/pedersen"
)

// Batched Σ-OR verification. Verifying nb proofs one by one costs ~4nb
// variable-base exponentiations — the dominant verifier cost in Table 1.
// A standard random-linear-combination batch collapses all 2nb branch
// equations into a single multi-exponentiation:
//
// Each proof i contributes two equations over base h:
//
//	h^{z0ᵢ} = A0ᵢ ∘ X0ᵢ^{e0ᵢ}        X0ᵢ = cᵢ
//	h^{z1ᵢ} = A1ᵢ ∘ X1ᵢ^{e1ᵢ}        X1ᵢ = cᵢ ⊘ g
//
// The verifier samples independent 128-bit coefficients ρᵢ, σᵢ and checks
// the ρ, σ-weighted product of all of them. X1ᵢ is never formed: since
// X1ᵢ^{e1ᵢσᵢ} = cᵢ^{e1ᵢσᵢ} ∘ g^{−e1ᵢσᵢ}, the two powers of cᵢ merge and the
// powers of g move to the fixed-base side, leaving three variable bases per
// proof and one two-generator commitment for the whole batch:
//
//	g^{Σᵢ e1ᵢσᵢ} ∘ h^{Σᵢ(ρᵢ z0ᵢ + σᵢ z1ᵢ)} = Πᵢ A0ᵢ^{ρᵢ} ∘ A1ᵢ^{σᵢ} ∘ cᵢ^{e0ᵢρᵢ + e1ᵢσᵢ}
//
// This is the same linear combination of the same 2nb equations, only
// regrouped, so if any individual equation fails the combined one fails
// except with probability 2⁻¹²⁸ over the coefficients. The left side is one
// fused fixed-base evaluation (pedersen CommitWith); the right side is one
// multi-exponentiation of 3nb terms, two thirds of them with 128-bit
// exponents (group.MultiExpParallel — on the default P-256 group that is
// the native Pippenger product, its windows shared among Check's workers).
// BenchmarkVerifyBitsAblation quantifies the speedup.
//
// BitBatch generalises the technique into an accumulator: any mix of Σ-OR
// bit proofs (from many provers, bins, or clients, each under its own
// Fiat-Shamir context), one-hot proofs, and plain Pedersen opening claims
// c = Com(x, r) folds into the same combined check. The ΠBin verifier uses
// this to verify an entire client board, or all of a prover's noise coins
// across every bin, with one multi-exponentiation.

// batchCoeffBytes is the byte width of the random batching coefficients:
// 128 bits gives 2^-128 soundness slack, far below the discrete-log
// advantage already conceded.
const batchCoeffBytes = 16

// BitBatch accumulates verification equations for a single combined
// random-linear-combination check. Add* methods perform the cheap scalar
// work (Fiat-Shamir challenge recomputation, structural checks) immediately
// and defer all group exponentiations to Check. A BitBatch is single-use and
// not safe for concurrent Add; Check may parallelise internally.
type BitBatch struct {
	pp    *pedersen.Params
	rnd   io.Reader
	bases []group.Element  // variable-base side: Π bases[i]^exps[i]
	exps  []*field.Element //
	gExps []*field.Element // fixed-base side: g^{Σ gExps} ∘ h^{Σ hExps},
	hExps []*field.Element // summed once, in Check
	n     int              // accumulated equations (for diagnostics)
	coeff []byte
}

// NewBitBatch creates an empty accumulator. rnd supplies the batching
// coefficients (nil = crypto/rand); these are verifier-local and never enter
// any transcript, so callers needing deterministic *protocol* transcripts
// may still pass nil.
func NewBitBatch(pp *pedersen.Params, rnd io.Reader) *BitBatch {
	if rnd == nil {
		rnd = rand.Reader
	}
	return &BitBatch{
		pp:    pp,
		rnd:   rnd,
		coeff: make([]byte, batchCoeffBytes),
	}
}

func (b *BitBatch) sample() (*field.Element, error) {
	if _, err := io.ReadFull(b.rnd, b.coeff); err != nil {
		return nil, fmt.Errorf("sigma: sampling batch coefficient: %w", err)
	}
	return b.pp.ScalarField().Reduce(b.coeff), nil
}

// Add folds one Σ-OR bit proof for commitment c under context ctx. It
// performs the scalar checks (completeness, challenge split) now; a non-nil
// error means this proof is individually invalid and was not folded.
func (b *BitBatch) Add(c *pedersen.Commitment, p *BitProof, ctx []byte) error {
	if p == nil || p.A0 == nil || p.A1 == nil || p.E0 == nil || p.E1 == nil || p.Z0 == nil || p.Z1 == nil {
		return fmt.Errorf("%w: incomplete bit proof", ErrVerify)
	}
	g := b.pp.Group()
	f := b.pp.ScalarField()
	tr := bitTranscript(b.pp, c)
	tr.Append("ctx", ctx)
	tr.Append("A0", g.Encode(p.A0))
	tr.Append("A1", g.Encode(p.A1))
	if !p.E0.Add(p.E1).Equal(tr.Challenge("e", f)) {
		return fmt.Errorf("%w: challenge split does not sum to e", ErrVerify)
	}
	rho, err := b.sample()
	if err != nil {
		return err
	}
	sigma, err := b.sample()
	if err != nil {
		return err
	}
	e1s := p.E1.Mul(sigma)
	b.gExps = append(b.gExps, e1s)
	b.hExps = append(b.hExps, rho.Mul(p.Z0), sigma.Mul(p.Z1))
	b.bases = append(b.bases, p.A0, p.A1, c.Element())
	b.exps = append(b.exps, rho, sigma, p.E0.Mul(rho).Add(e1s))
	b.n++
	return nil
}

// AddOpening folds the claim c = Com(x, r), weighted by a fresh ρ:
// c^ρ = g^{ρx} ∘ h^{ρr} — one variable base with a 128-bit exponent, and
// ρx, ρr onto the fixed-base side. Used to batch the one-hot product
// openings and any other commitment checks that travel with a batch of
// Σ-proofs.
func (b *BitBatch) AddOpening(c *pedersen.Commitment, x, r *field.Element) error {
	rho, err := b.sample()
	if err != nil {
		return err
	}
	b.gExps = append(b.gExps, rho.Mul(x))
	b.hExps = append(b.hExps, rho.Mul(r))
	b.bases = append(b.bases, c.Element())
	b.exps = append(b.exps, rho)
	b.n++
	return nil
}

// AddOneHot folds a complete one-hot proof over commitments cs: one bit
// proof per coordinate (bound to the same per-coordinate contexts that
// VerifyOneHot uses) plus the product opening Π cs = Com(1, R). The fold is
// atomic: on a non-nil error (an individually invalid component) the batch
// is rolled back to its state before the call, so one malformed submission
// cannot poison a board-wide batch.
func (b *BitBatch) AddOneHot(cs []*pedersen.Commitment, p *OneHotProof, ctx []byte) error {
	if p == nil || p.R == nil {
		return fmt.Errorf("%w: incomplete one-hot proof", ErrVerify)
	}
	if len(p.Bits) != len(cs) || len(cs) == 0 {
		return fmt.Errorf("%w: one-hot proof covers %d of %d coordinates", ErrVerify, len(p.Bits), len(cs))
	}
	// Snapshot for rollback: the batch is four slices that only grow.
	mark, gMark, hMark, nMark := len(b.bases), len(b.gExps), len(b.hExps), b.n
	rollback := func() {
		b.bases, b.exps, b.n = b.bases[:mark], b.exps[:mark], nMark
		b.gExps, b.hExps = b.gExps[:gMark], b.hExps[:hMark]
	}
	for j := range cs {
		if err := b.Add(cs[j], p.Bits[j], oneHotCoordCtx(ctx, j)); err != nil {
			rollback()
			return fmt.Errorf("coordinate %d: %w", j, err)
		}
	}
	if err := b.AddOpening(pedersen.Sum(b.pp, cs...), b.pp.ScalarField().One(), p.R); err != nil {
		rollback()
		return err
	}
	return nil
}

// Check evaluates the combined equation: one fused fixed-base commitment
// against one multi-exponentiation, which group.MultiExpParallel spreads
// over up to `workers` goroutines (<= 0 meaning GOMAXPROCS) on either
// group; a product of a few dozen terms or fewer stays on the calling
// goroutine. The verdict does not depend on workers. A nil return means every
// folded equation holds (up to 2^-128 batching slack); an ErrVerify return
// means at least one folded statement is false, with no attribution —
// callers needing to name a culprit re-verify individually.
func (b *BitBatch) Check(workers int) error {
	if b.n == 0 {
		return nil
	}
	g, f := b.pp.Group(), b.pp.ScalarField()
	lhs := b.pp.CommitWith(f.Sum(b.gExps...), f.Sum(b.hExps...)).Element()
	rhs := group.MultiExpParallel(g, b.bases, b.exps, workers)
	if !g.Equal(lhs, rhs) {
		return fmt.Errorf("%w: combined batch equation failed", ErrVerify)
	}
	return nil
}

// VerifyBitsBatchCtx verifies a batch of Σ-OR bit proofs with the random-
// linear-combination technique, proof i bound to context ctxFor(i) (the ΠBin
// verifier binds each proof to its index in an enclosing structure). On
// success it is significantly faster than VerifyBits; on failure it falls
// back to the sequential path so the error identifies the first offending
// index (the verifier must publicly accuse a specific cheater, Line 7 of
// the protocol description). rnd supplies the batching coefficients (nil =
// crypto/rand).
func VerifyBitsBatchCtx(pp *pedersen.Params, cs []*pedersen.Commitment, ps []*BitProof, ctxFor func(i int) []byte, rnd io.Reader) error {
	if len(cs) != len(ps) {
		return fmt.Errorf("%w: %d commitments but %d proofs", ErrVerify, len(cs), len(ps))
	}
	if len(cs) == 0 {
		return nil
	}
	b := NewBitBatch(pp, rnd)
	for i := range cs {
		if err := b.Add(cs[i], ps[i], ctxFor(i)); err != nil {
			return fmt.Errorf("index %d: %w", i, err)
		}
	}
	if b.Check(1) == nil {
		return nil
	}
	// The batch failed: some proof is bad. Re-verify sequentially to name
	// the culprit; if (with probability 2^-128) the sequential pass finds
	// nothing, report the inconsistency rather than accepting.
	for i := range cs {
		if err := VerifyBit(pp, cs[i], ps[i], ctxFor(i)); err != nil {
			return fmt.Errorf("index %d: %w", i, err)
		}
	}
	return fmt.Errorf("%w: batch equation failed but sequential pass succeeded (astronomically unlikely)", ErrVerify)
}
