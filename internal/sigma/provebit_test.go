package sigma

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/pedersen"
)

// proveBitGeneric is ProveBit with the false branch simulated the generic
// way, aFalse = h^zFalse ∘ X_false^(−eFalse), one variable-base Exp on the
// statement. It is the reference the fused prover is tested against.
func proveBitGeneric(pp *pedersen.Params, c *pedersen.Commitment, x, r *field.Element, ctx []byte, rnd io.Reader) (*BitProof, error) {
	f, g := pp.ScalarField(), pp.Group()
	bit := 0
	if x.IsOne() {
		bit = 1
	}
	eFalse, err := f.Rand(rnd)
	if err != nil {
		return nil, err
	}
	zFalse, err := f.Rand(rnd)
	if err != nil {
		return nil, err
	}
	t, err := f.Rand(rnd)
	if err != nil {
		return nil, err
	}
	x0, x1 := bitStatements(pp, c)
	stmts := [2]group.Element{x0, x1}
	aFalse := g.Op(pp.ExpH(zFalse), g.Inv(g.Exp(stmts[1-bit], eFalse)))
	aTrue := pp.ExpH(t)
	a := [2]group.Element{aTrue, aFalse}
	if bit == 1 {
		a = [2]group.Element{aFalse, aTrue}
	}
	tr := bitTranscript(pp, c)
	tr.Append("ctx", ctx)
	tr.Append("A0", g.Encode(a[0]))
	tr.Append("A1", g.Encode(a[1]))
	eTrue := tr.Challenge("e", f).Sub(eFalse)
	zTrue := t.Add(eTrue.Mul(r))
	if bit == 0 {
		return &BitProof{A0: a[0], A1: a[1], E0: eTrue, Z0: zTrue, E1: eFalse, Z1: zFalse}, nil
	}
	return &BitProof{A0: a[0], A1: a[1], E0: eFalse, Z0: zFalse, E1: eTrue, Z1: zTrue}, nil
}

// countingGroup counts the Exp calls made on a group: every one is a
// variable-base exponentiation, since the generators' powers go through
// pedersen's fixed-base tables.
type countingGroup struct {
	group.Group
	exps int
}

func (g *countingGroup) Exp(a group.Element, k *field.Element) group.Element {
	g.exps++
	return g.Group.Exp(a, k)
}

// TestProveBitMatchesGenericSimulation: from one seeded stream, the fused
// prover and the generic simulation produce the same proof bytes for both
// bits on both groups, and the fused prover makes no variable-base Exp.
func TestProveBitMatchesGenericSimulation(t *testing.T) {
	for _, base := range both {
		cg := &countingGroup{Group: base.Group()}
		pp := pedersen.Setup(cg)
		f := pp.ScalarField()
		for seed := int64(1); seed <= 4; seed++ {
			for _, xv := range []int64{0, 1} {
				x, r := f.FromInt64(xv), f.MustRand(rand.New(rand.NewSource(-seed)))
				c := pp.CommitWith(x, r)
				cg.exps = 0
				fused, err := ProveBit(pp, c, x, r, ctxTx, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if cg.exps != 0 {
					t.Errorf("%s bit %d: ProveBit made %d variable-base Exp calls, want 0", cg.Name(), xv, cg.exps)
				}
				cg.exps = 0
				ref, err := proveBitGeneric(pp, c, x, r, ctxTx, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if cg.exps != 1 {
					t.Errorf("%s bit %d: the generic simulation made %d Exp calls, want 1", cg.Name(), xv, cg.exps)
				}
				if !bytes.Equal(fused.Encode(pp), ref.Encode(pp)) {
					t.Errorf("%s bit %d seed %d: fused proof differs from the generic simulation", cg.Name(), xv, seed)
				}
				if err := VerifyBit(pp, c, fused, ctxTx); err != nil {
					t.Errorf("%s bit %d: fused proof rejected: %v", cg.Name(), xv, err)
				}
			}
		}
		// A prover lying about x for a commitment to 2: both simulations
		// yield a proof that fails.
		x2, r := f.FromInt64(2), f.MustRand(nil)
		c2 := pp.CommitWith(x2, r)
		for name, prove := range map[string]func(*pedersen.Params, *pedersen.Commitment, *field.Element, *field.Element, []byte, io.Reader) (*BitProof, error){
			"fused": ProveBit, "generic": proveBitGeneric,
		} {
			lie, err := prove(pp, c2, f.One(), r, ctxTx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if VerifyBit(pp, c2, lie, ctxTx) == nil {
				t.Errorf("%s %s: proof for a commitment to 2 accepted", cg.Name(), name)
			}
		}
	}
}
