package sigma

import (
	"fmt"
	"io"

	"repro/internal/field"
	"repro/internal/pedersen"
)

// The Σ-OR simulator pair: test-side references that ProveBit's proofs and
// the simulator's satisfy the same verification equations.

// simulateBitWithChallenge produces, for ANY commitment c (even one not in
// L_Bit), a proof-shaped transcript that verifies against a programmed
// challenge e. It is the zero-knowledge simulator of the OR proof, used to
// establish that transcripts reveal nothing about the witness.
func simulateBitWithChallenge(pp *pedersen.Params, c *pedersen.Commitment, e *field.Element, rnd io.Reader) (*BitProof, error) {
	f := pp.ScalarField()
	g := pp.Group()
	e0, err := f.Rand(rnd)
	if err != nil {
		return nil, err
	}
	z0, err := f.Rand(rnd)
	if err != nil {
		return nil, err
	}
	z1, err := f.Rand(rnd)
	if err != nil {
		return nil, err
	}
	e1 := e.Sub(e0)
	x0, x1 := bitStatements(pp, c)
	a0 := g.Op(pp.ExpH(z0), g.Inv(g.Exp(x0, e0)))
	a1 := g.Op(pp.ExpH(z1), g.Inv(g.Exp(x1, e1)))
	return &BitProof{A0: a0, A1: a1, E0: e0, E1: e1, Z0: z0, Z1: z1}, nil
}

// checkBitTranscript verifies the three-move algebra of a (possibly
// simulated) transcript against an explicit challenge, bypassing Fiat-
// Shamir: the reference for ProveBit's and the simulator's equations.
func checkBitTranscript(pp *pedersen.Params, c *pedersen.Commitment, p *BitProof, e *field.Element) error {
	g := pp.Group()
	if !p.E0.Add(p.E1).Equal(e) {
		return fmt.Errorf("%w: challenge split", ErrVerify)
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
