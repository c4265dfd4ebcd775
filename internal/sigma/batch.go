package sigma

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"slices"
	"sync"

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
//
// An opening claim weighted by a fresh τ reads c^τ = g^{τx} ∘ h^{τr}. When c
// is a commitment a bit proof already put on the variable-base side
// (AddOpeningAt), τ joins that base's exponent and τx, τr the fixed-base
// sums: the claim costs no new term. Admission checks every share opening of
// a frame this way.

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
	held  []int            // index into bases of each bit proof's commitment, in fold order
	gSum  big.Int          // fixed-base side: g^{gSum} ∘ h^{hSum}, reduced
	hSum  big.Int          // once, in Check
	n     int              // accumulated equations (for diagnostics)
	// Members, closed by Mark: each one's end in bases, and the fixed-base
	// sums as they stood then — gSum | hSum, 2·len(buf) bytes each, in
	// chunks of markChunk members that are never copied — so a run of
	// members' share of them is the difference of two marks.
	ends []int
	sums [][]byte
	// defect is the variable-base side over the fixed-base side of the
	// last failed Check: the identity exactly when the equation holds.
	defect group.Element
	coeff  []byte
	// Scratch for the scalar side, reused by every fold: k and k2 hold
	// sampled coefficients, x a scalar read out of an element, prod a
	// product, cExp a commitment's exponent under construction, and the
	// marks AddOneHot's snapshot of the fixed-base sums.
	buf                  []byte
	k, k2, x, prod, cExp big.Int
	gMark, hMark         big.Int
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
		buf:   make([]byte, pp.ScalarField().ByteLen()),
	}
}

// draw samples a fresh coefficient into k.
func (b *BitBatch) draw(k *big.Int) error {
	if _, err := io.ReadFull(b.rnd, b.coeff); err != nil {
		return fmt.Errorf("sigma: sampling batch coefficient: %w", err)
	}
	k.SetBytes(b.coeff)
	return nil
}

// sample draws a fresh coefficient into k and returns it as an exponent.
func (b *BitBatch) sample(k *big.Int) (*field.Element, error) {
	if err := b.draw(k); err != nil {
		return nil, err
	}
	return b.pp.ScalarField().Reduce(b.coeff), nil
}

// mul sets z = k·e, unreduced; z must be neither k nor b.x.
func (b *BitBatch) mul(z, k *big.Int, e *field.Element) {
	e.PutBytes(b.buf)
	b.x.SetBytes(b.buf)
	z.Mul(&b.x, k)
}

// addMul adds k·e to the fixed-base sum acc.
func (b *BitBatch) addMul(acc, k *big.Int, e *field.Element) {
	b.mul(&b.prod, k, e)
	acc.Add(acc, &b.prod)
}

// Add folds one Σ-OR bit proof for commitment c under context ctx. It
// performs the scalar checks (completeness, challenge split) now; a non-nil
// error means this proof is individually invalid and was not folded. c
// becomes held commitment Held()-1.
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
	rho, err := b.sample(&b.k)
	if err != nil {
		return err
	}
	sigma, err := b.sample(&b.k2)
	if err != nil {
		return err
	}
	// c's exponent is e0ρ + e1σ; e1σ also moves to the g side.
	b.mul(&b.cExp, &b.k, p.E0)
	b.mul(&b.prod, &b.k2, p.E1)
	b.gSum.Add(&b.gSum, &b.prod)
	b.cExp.Add(&b.cExp, &b.prod)
	b.addMul(&b.hSum, &b.k, p.Z0)
	b.addMul(&b.hSum, &b.k2, p.Z1)
	b.held = append(b.held, len(b.bases)+2)
	b.bases = append(b.bases, p.A0, p.A1, c.Element())
	b.exps = append(b.exps, rho, sigma, f.FromBig(&b.cExp))
	b.n++
	return nil
}

// Held returns how many commitments the batch holds as bases: one per bit
// proof, in fold order (Add's c; AddOneHot's coordinates one by one). The
// commitment an Add folds next is held commitment Held(), and coordinate j
// of the next AddOneHot is Held()+j.
func (b *BitBatch) Held() int { return len(b.held) }

// AddOpening folds the claim c = Com(x, r), weighted by a fresh ρ:
// c^ρ = g^{ρx} ∘ h^{ρr} — one variable base with a 128-bit exponent, and
// ρx, ρr onto the fixed-base side. Used to batch the one-hot product
// openings and any other commitment checks that travel with a batch of
// Σ-proofs.
func (b *BitBatch) AddOpening(c *pedersen.Commitment, x, r *field.Element) error {
	rho, err := b.sample(&b.k)
	if err != nil {
		return err
	}
	b.addMul(&b.gSum, &b.k, x)
	b.addMul(&b.hSum, &b.k, r)
	b.bases = append(b.bases, c.Element())
	b.exps = append(b.exps, rho)
	b.n++
	return nil
}

// AddOpeningAt folds the claim that held commitment i (see Held) opens to
// (x, r). It is AddOpening onto a base the batch already holds: the fresh
// ρ joins that base's exponent, so the claim adds no multi-exponentiation
// term and no inversion.
func (b *BitBatch) AddOpeningAt(i int, x, r *field.Element) error {
	if i < 0 || i >= len(b.held) {
		return fmt.Errorf("sigma: the batch holds %d commitments, not commitment %d", len(b.held), i)
	}
	if err := b.draw(&b.k); err != nil {
		return err
	}
	b.addMul(&b.gSum, &b.k, x)
	b.addMul(&b.hSum, &b.k, r)
	at := b.held[i]
	b.exps[at].PutBytes(b.buf)
	b.cExp.SetBytes(b.buf)
	b.cExp.Add(&b.cExp, &b.k)
	b.exps[at] = b.pp.ScalarField().FromBig(&b.cExp)
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
	// Snapshot for rollback: three slices that only grow, and the sums.
	mark, held, n := len(b.bases), len(b.held), b.n
	b.gMark.Set(&b.gSum)
	b.hMark.Set(&b.hSum)
	rollback := func() {
		b.bases, b.exps, b.held, b.n = b.bases[:mark], b.exps[:mark], b.held[:held], n
		b.gSum.Set(&b.gMark)
		b.hSum.Set(&b.hMark)
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
// means at least one folded statement is false, with no attribution; Narrow
// finds the members behind it from the product Check keeps.
func (b *BitBatch) Check(workers int) error {
	if b.n == 0 {
		return nil
	}
	g, f := b.pp.Group(), b.pp.ScalarField()
	lhs := b.pp.CommitWith(f.FromBig(&b.gSum), f.FromBig(&b.hSum)).Element()
	rhs := group.MultiExpParallel(g, b.bases, b.exps, workers)
	if !g.Equal(lhs, rhs) {
		b.defect = g.Op(rhs, g.Inv(lhs))
		return fmt.Errorf("%w: combined batch equation failed", ErrVerify)
	}
	return nil
}

// Mark closes a member: every equation folded since the previous Mark (or
// since the batch began) is the next member, which Narrow addresses by its
// index. A caller folds one statement per member — an Add, an AddOneHot —
// and marks it once the fold succeeded. An opening claim that AddOpeningAt
// lays on a marked member's commitment moves that member's exponent but not
// its mark, so a batch that is to be narrowed takes none.
func (b *BitBatch) Mark() {
	at := b.mark(len(b.ends))
	w := len(at) / 2
	for i, sum := range [2]*big.Int{&b.gSum, &b.hSum} {
		// A sum is reduced only when it nears the width: a fold adds
		// products of a 128-bit coefficient and a scalar, so 64 bits of
		// headroom hold 2^64 of them.
		if sum.BitLen() > 8*w-64 {
			sum.Mod(sum, b.pp.ScalarField().Modulus())
		}
		sum.FillBytes(at[i*w : (i+1)*w])
	}
	b.ends = append(b.ends, len(b.bases))
}

// markChunk is how many members' marks one allocation holds.
const markChunk = 64

// mark returns member m's mark, gSum | hSum, allocating its chunk when m
// opens one.
func (b *BitBatch) mark(m int) []byte {
	w := 4 * len(b.buf)
	if m == markChunk*len(b.sums) {
		b.sums = append(b.sums, make([]byte, markChunk*w))
	}
	return b.sums[m/markChunk][m%markChunk*w:][:w]
}

// memberRun is members lo..hi-1 of a batch, with the defect of their
// combined equation.
type memberRun struct {
	lo, hi int
	defect group.Element
}

// lefts returns the defect of every run's left half (nil for a run of one),
// the runs spread over the workers: one multi-exponentiation over the half's
// terms, plus g and h raised to minus its share of the fixed-base sums, the
// difference of two marks.
func (b *BitBatch) lefts(runs []memberRun, workers int) []group.Element {
	out := make([]group.Element, len(runs))
	stripes := min(workers, len(runs))
	w, f := 2*len(b.buf), b.pp.ScalarField()
	share := func(m, i int) *big.Int { return new(big.Int).SetBytes(b.mark(m)[i*w : (i+1)*w]) }
	var wg sync.WaitGroup
	for s := range stripes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < len(runs); i += stripes {
				lo, hi := runs[i].lo, runs[i].hi
				if hi-lo == 1 {
					continue
				}
				mid, from := (lo+hi)/2, 0
				gs, hs := share(mid-1, 0), share(mid-1, 1)
				if lo > 0 {
					from = b.ends[lo-1]
					gs.Sub(gs, share(lo-1, 0))
					hs.Sub(hs, share(lo-1, 1))
				}
				to := b.ends[mid-1]
				bases := append(slices.Clip(b.bases[from:to]), b.pp.G(), b.pp.H())
				exps := append(slices.Clip(b.exps[from:to]), f.FromBig(gs).Neg(), f.FromBig(hs).Neg())
				out[i] = group.MultiExpParallel(b.pp.Group(), bases, exps, workers/stripes)
			}
		}()
	}
	wg.Wait()
	return out
}

// Narrow is the fallback of a failed Check, over a batch whose every term
// belongs to a marked member and that took no fold since: group testing by
// bisection (Bellare, Garay and Rabin, EUROCRYPT '98). Every run of members
// known to fail is halved, a level at a time, and the left half's defect is
// one multi-exponentiation, the runs of a level spread over the workers. A
// run's equation is the product of its halves', so the right half's defect
// is the run's divided by the left's, with no check of its own: when the
// left half holds, the right half fails. A failing run of one is a suspect.
// Every failing run holds a failing member, so once there are more failing
// runs and suspects than a quarter of the members, halving costs more than a
// check per member, and every member of a failing run is a suspect. Narrow
// returns the suspects in member order; every other member passed with a run
// (up to the same 2^-128 slack as Check), and the caller decides each
// suspect alone. d failing members cost about d·log₂(n/d)
// multi-exponentiations, whose terms add up to about 1 + log₂(d)/2 times the
// batch's.
func (b *BitBatch) Narrow(workers int) []int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g, n := b.pp.Group(), len(b.ends)
	var suspects []int
	runs := []memberRun{{0, n, b.defect}}
	for len(runs) > 0 && 4*(len(suspects)+len(runs)) <= n {
		lefts := b.lefts(runs, workers)
		var next []memberRun
		for i, r := range runs {
			if r.hi-r.lo == 1 {
				suspects = append(suspects, r.lo)
				continue
			}
			mid := (r.lo + r.hi) / 2
			for _, half := range [2]memberRun{{r.lo, mid, lefts[i]}, {mid, r.hi, g.Op(r.defect, g.Inv(lefts[i]))}} {
				if !g.Equal(half.defect, g.Identity()) {
					next = append(next, half)
				}
			}
		}
		runs = next
	}
	for _, r := range runs {
		for m := r.lo; m < r.hi; m++ {
			suspects = append(suspects, m)
		}
	}
	slices.Sort(suspects)
	return suspects
}

// VerifyBitsBatchCtx verifies a batch of Σ-OR bit proofs with the random-
// linear-combination technique, proof i bound to context ctxFor(i) (the ΠBin
// verifier binds each proof to its index in an enclosing structure). On
// success it is significantly faster than VerifyBits; on failure Narrow
// bisects the batch and the suspects are re-verified in index order, so the
// error identifies the first offending index (the verifier must publicly
// accuse a specific cheater, Line 7 of the protocol description). rnd
// supplies the batching coefficients (nil = crypto/rand).
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
		b.Mark()
	}
	if b.Check(1) == nil {
		return nil
	}
	// The batch failed: some proof is bad. Every proof is member i, and each
	// one Narrow leaves is re-verified alone to name the culprit; if (with
	// probability 2^-128) none of them fails, report the inconsistency
	// rather than accepting.
	for _, i := range b.Narrow(1) {
		if err := VerifyBit(pp, cs[i], ps[i], ctxFor(i)); err != nil {
			return fmt.Errorf("index %d: %w", i, err)
		}
	}
	return fmt.Errorf("%w: batch equation failed but sequential pass succeeded (astronomically unlikely)", ErrVerify)
}
