// Package sigma implements the Σ-protocols used by the verifiable DP
// protocol ΠBin: the Cramer-Damgård-Schoenmakers disjunctive OR proof that
// a Pedersen commitment opens to a bit (the oracle O_OR for the language
// L_Bit, equation (3) and Appendix C of the paper), and the one-hot vector
// proof used to validate client inputs for M-bin histograms.
//
// Both are non-interactive via the Fiat-Shamir transform over the
// transcript package ("In all implementations in this paper, we use the
// Fiat-Shamir transform" — Appendix C).
package sigma

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/pedersen"
	"repro/internal/transcript"
)

// ErrVerify is the sentinel wrapped by all verification failures.
var ErrVerify = errors.New("sigma: proof verification failed")

// BitProof is the Cramer-Damgård-Schoenmakers Σ-OR proof (Appendix C,
// Figures 5 and 6 of the paper) that a Pedersen commitment c lies in
//
//	L_Bit = { c : x ∈ {0,1} ∧ c = Com(x, r) }   (equation (3))
//
// without revealing which bit. The two disjuncts are Schnorr statements over
// base h:
//
//	branch 0:  c       = h^r   (x = 0)
//	branch 1:  c ⊘ g   = h^r   (x = 1)
//
// The prover runs the real protocol on the true branch and the simulator on
// the false one, splitting the challenge e = e0 + e1.
type BitProof struct {
	A0, A1 group.Element  // announcements d0, d1
	E0, E1 *field.Element // challenge shares, e0+e1 = e
	Z0, Z1 *field.Element // responses v0, v1 in the paper's notation
}

func bitTranscript(pp *pedersen.Params, c *pedersen.Commitment) *transcript.Transcript {
	g := pp.Group()
	tr := transcript.New("sigma-or-bit/" + g.Name())
	tr.Append("g", g.Encode(pp.G()))
	tr.Append("h", g.Encode(pp.H()))
	tr.Append("C", c.Bytes())
	return tr
}

// bitStatements returns the two disjunct statements (X0, X1) for commitment
// c: X0 = c and X1 = c ⊘ g, both claimed to be powers of h. Proving and
// per-proof verification work on them; the folded verifier (BitBatch)
// checks the same two equations without ever forming X1.
func bitStatements(pp *pedersen.Params, c *pedersen.Commitment) (x0, x1 group.Element) {
	g := pp.Group()
	return c.Element(), g.Op(c.Element(), g.Inv(pp.G()))
}

// ProveBit produces a non-interactive Σ-OR proof that c = Com(x, r) with
// x ∈ {0,1}. It returns an error for x outside {0,1}: an honest caller never
// does this, and refusing early avoids emitting a proof that cannot verify.
// ctx binds the proof to an enclosing session.
//
// The prover knows c's opening, so it simulates the false branch without a
// variable-base exponentiation: X_false = g^(2x−1)·h^r, hence
// aFalse = h^zFalse ∘ X_false^(−eFalse) = g^((1−2x)·eFalse) ∘ h^(zFalse − r·eFalse),
// one fused fixed-base commitment. The element and the draws are those of
// the generic simulation, so the proof's bytes are too.
func ProveBit(pp *pedersen.Params, c *pedersen.Commitment, x, r *field.Element, ctx []byte, rnd io.Reader) (*BitProof, error) {
	f := pp.ScalarField()
	var bit int
	switch {
	case x.IsZero():
		bit = 0
	case x.IsOne():
		bit = 1
	default:
		return nil, fmt.Errorf("sigma: ProveBit called with non-bit value %v", x)
	}
	g := pp.Group()

	// Simulate the false branch: pick (eFalse, zFalse) at random and solve
	// for the announcement aFalse = h^zFalse ∘ XFalse^{-eFalse}.
	eFalse, err := f.Rand(rnd)
	if err != nil {
		return nil, fmt.Errorf("sigma: %w", err)
	}
	zFalse, err := f.Rand(rnd)
	if err != nil {
		return nil, fmt.Errorf("sigma: %w", err)
	}
	// Real branch announcement: a = h^t.
	t, err := f.Rand(rnd)
	if err != nil {
		return nil, fmt.Errorf("sigma: %w", err)
	}

	gExp := eFalse // (1−2x)·eFalse
	if bit == 1 {
		gExp = eFalse.Neg()
	}
	aFalse := pp.CommitWith(gExp, zFalse.Sub(r.Mul(eFalse))).Element()
	aTrue := pp.ExpH(t)

	var a0, a1 group.Element
	if bit == 0 {
		a0, a1 = aTrue, aFalse
	} else {
		a0, a1 = aFalse, aTrue
	}

	tr := bitTranscript(pp, c)
	tr.Append("ctx", ctx)
	tr.Append("A0", g.Encode(a0))
	tr.Append("A1", g.Encode(a1))
	e := tr.Challenge("e", f)

	eTrue := e.Sub(eFalse)
	zTrue := t.Add(eTrue.Mul(r))

	p := &BitProof{A0: a0, A1: a1}
	if bit == 0 {
		p.E0, p.Z0 = eTrue, zTrue
		p.E1, p.Z1 = eFalse, zFalse
	} else {
		p.E0, p.Z0 = eFalse, zFalse
		p.E1, p.Z1 = eTrue, zTrue
	}
	return p, nil
}

// VerifyBit checks a Σ-OR bit proof: e0+e1 must equal the Fiat-Shamir
// challenge, and both branch verification equations must hold
// (h^z0 = A0 ∘ c^e0 and h^z1 = A1 ∘ (c⊘g)^e1, Line 9 of Figures 5-6).
func VerifyBit(pp *pedersen.Params, c *pedersen.Commitment, p *BitProof, ctx []byte) error {
	if p == nil || p.A0 == nil || p.A1 == nil || p.E0 == nil || p.E1 == nil || p.Z0 == nil || p.Z1 == nil {
		return fmt.Errorf("%w: incomplete bit proof", ErrVerify)
	}
	g := pp.Group()
	f := pp.ScalarField()
	tr := bitTranscript(pp, c)
	tr.Append("ctx", ctx)
	tr.Append("A0", g.Encode(p.A0))
	tr.Append("A1", g.Encode(p.A1))
	e := tr.Challenge("e", f)
	if !p.E0.Add(p.E1).Equal(e) {
		return fmt.Errorf("%w: challenge split does not sum to e", ErrVerify)
	}
	x0, x1 := bitStatements(pp, c)
	if !g.Equal(pp.ExpH(p.Z0), g.Op(p.A0, g.Exp(x0, p.E0))) {
		return fmt.Errorf("%w: branch-0 equation", ErrVerify)
	}
	if !g.Equal(pp.ExpH(p.Z1), g.Op(p.A1, g.Exp(x1, p.E1))) {
		return fmt.Errorf("%w: branch-1 equation", ErrVerify)
	}
	return nil
}

// VerifyBits checks a batch of bit proofs for distinct commitments,
// returning the index of the first failure. This is the verifier's
// Σ-verification stage in Table 1 of the paper; proofs are independent so
// the work is embarrassingly parallel (the experiments package measures the
// sequential cost, matching the paper's single-core accounting).
func VerifyBits(pp *pedersen.Params, cs []*pedersen.Commitment, ps []*BitProof, ctx []byte) error {
	if len(cs) != len(ps) {
		return fmt.Errorf("%w: %d commitments but %d proofs", ErrVerify, len(cs), len(ps))
	}
	for i := range cs {
		if err := VerifyBit(pp, cs[i], ps[i], ctx); err != nil {
			return fmt.Errorf("index %d: %w", i, err)
		}
	}
	return nil
}
