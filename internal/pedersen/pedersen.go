// Package pedersen implements the Pedersen commitment scheme
// Com(x, r) = g^x · h^r over a prime-order group (Definitions 2-3 and
// equation (11) of the paper).
//
// The scheme is perfectly hiding and computationally binding under the
// discrete log assumption (Definitions 9-11), and homomorphic:
//
//	Com(x1, r1) ⊗ Com(x2, r2) = Com(x1+x2, r1+r2)   (equation (2))
//
// which is the property the ΠBin verifier exploits in its final check
// (Line 13 of Figure 2): the product of all client-share and adjusted
// noise-bit commitments must equal a commitment to the reported output under
// the reported aggregate randomness.
package pedersen

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/field"
	"repro/internal/group"
)

// Params carries the public parameters pp of the commitment scheme: the
// group and its two generators. Params are generated by Setup and shared by
// provers, verifiers and clients.
type Params struct {
	grp group.Group
	g   group.Element
	h   group.Element

	// tbl caches the resolved fixed-base tables (see precomp.go); it is a
	// performance cache only and does not participate in Equal.
	tbl tblCache
}

// Setup derives public parameters for the given group. The second generator
// h comes from the group's nothing-up-my-sleeve derivation, so no party
// knows log_g(h); this is what makes the scheme binding for the party that
// generated the parameters, allowing a *prover* to run Setup without the
// verifier trusting it.
func Setup(g group.Group) *Params {
	return &Params{grp: g, g: g.Generator(), h: g.AltGenerator()}
}

// Group returns the underlying group.
func (p *Params) Group() group.Group { return p.grp }

// ScalarField returns the message/randomness space Z_q.
func (p *Params) ScalarField() *field.Field { return p.grp.ScalarField() }

// Equal reports whether two parameter sets are interchangeable: same group
// and same generator pair. Comparison is structural (by canonical
// encodings), not by pointer, so an auditor that re-derives parameters from
// a deployment config can verify commitments created elsewhere.
func (p *Params) Equal(o *Params) bool {
	if p == o {
		return true
	}
	if p == nil || o == nil {
		return false
	}
	return p.grp.Name() == o.grp.Name() &&
		bytes.Equal(p.grp.Encode(p.g), o.grp.Encode(o.g)) &&
		bytes.Equal(p.grp.Encode(p.h), o.grp.Encode(o.h))
}

// G returns the message generator g.
func (p *Params) G() group.Element { return p.g }

// H returns the randomness generator h.
func (p *Params) H() group.Element { return p.h }

// Commitment is a Pedersen commitment: an element of the group. Commitments
// are immutable values.
type Commitment struct {
	pp *Params
	e  group.Element
}

// Element returns the underlying group element.
func (c *Commitment) Element() group.Element { return c.e }

// Params returns the parameters the commitment was made under.
func (c *Commitment) Params() *Params { return c.pp }

// String implements fmt.Stringer.
func (c *Commitment) String() string { return "Com" + c.e.String() }

// Commit commits to message x with fresh randomness drawn from r (nil means
// crypto/rand). It returns the commitment and the opening randomness.
func (p *Params) Commit(x *field.Element, r io.Reader) (*Commitment, *field.Element, error) {
	rx, err := p.ScalarField().Rand(r)
	if err != nil {
		return nil, nil, fmt.Errorf("pedersen: sampling randomness: %w", err)
	}
	return p.CommitWith(x, rx), rx, nil
}

// CommitWith computes Com(x, rx) deterministically with caller-supplied
// randomness. Protocol code uses this when the randomness must be remembered
// (it is part of the opening) or derived in a specific way. Evaluation uses
// per-group fixed-base tables (see precomp.go).
func (p *Params) CommitWith(x, rx *field.Element) *Commitment {
	return &Commitment{pp: p, e: p.commitElement(x, rx)}
}

// Verify checks that c opens to (x, rx).
func (p *Params) Verify(c *Commitment, x, rx *field.Element) bool {
	if c == nil || !p.Equal(c.pp) {
		return false
	}
	return p.grp.Equal(c.e, p.CommitWith(x, rx).e)
}

// Zero returns Com(0, 0) = identity, the neutral element for Add.
func (p *Params) Zero() *Commitment {
	return &Commitment{pp: p, e: p.grp.Identity()}
}

// OneNoRandomness returns Com(1, 0) = g, used by the ΠBin verifier when it
// homomorphically flips a bit commitment: ĉ' = Com(1,0) ⊗ c'^{-1}
// (Line 12 of Figure 2).
func (p *Params) OneNoRandomness() *Commitment {
	return &Commitment{pp: p, e: p.g}
}

// Add returns the homomorphic combination: a commitment to the sum of the
// messages under the sum of the randomness.
func (c *Commitment) Add(o *Commitment) *Commitment {
	c.mustMatch(o)
	return &Commitment{pp: c.pp, e: c.pp.grp.Op(c.e, o.e)}
}

// Sub returns a commitment to the difference of messages (randomness also
// subtracts).
func (c *Commitment) Sub(o *Commitment) *Commitment {
	c.mustMatch(o)
	return &Commitment{pp: c.pp, e: c.pp.grp.Op(c.e, c.pp.grp.Inv(o.e))}
}

// Bytes returns the canonical encoding of the commitment.
func (c *Commitment) Bytes() []byte { return c.pp.grp.Encode(c.e) }

// DecodeCommitmentWith parses a canonical encoding, validating group
// membership, reading the element through d, which must decode elements of
// p's group: the group itself, or a group.Hinted run.
func (p *Params) DecodeCommitmentWith(d group.Decoder, b []byte) (*Commitment, error) {
	e, err := d.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("pedersen: %w", err)
	}
	return &Commitment{pp: p, e: e}, nil
}

func (c *Commitment) mustMatch(o *Commitment) {
	if !c.pp.Equal(o.pp) {
		panic("pedersen: commitments under different parameters")
	}
}

// Sum folds a slice of commitments with Add; Sum of nothing is Zero.
func Sum(p *Params, cs ...*Commitment) *Commitment {
	acc := p.Zero()
	for _, c := range cs {
		acc = acc.Add(c)
	}
	return acc
}

// Opening bundles a message and its commitment randomness. Clients send
// openings of their input-share commitments to the provers (Line 2 of
// Figure 2).
type Opening struct {
	X *field.Element // committed message
	R *field.Element // commitment randomness
}

// VectorCommit commits to each coordinate of xs independently, returning the
// commitments and openings. This is how a client commits to the K shares of
// its input, and how an M-bin histogram input (a one-hot vector) is
// committed coordinate-wise.
func (p *Params) VectorCommit(xs []*field.Element, r io.Reader) ([]*Commitment, []*Opening, error) {
	cs := make([]*Commitment, len(xs))
	os := make([]*Opening, len(xs))
	for i, x := range xs {
		c, rx, err := p.Commit(x, r)
		if err != nil {
			return nil, nil, err
		}
		cs[i] = c
		os[i] = &Opening{X: x, R: rx}
	}
	return cs, os, nil
}

// ErrBadOpening is returned by CheckOpenings on any mismatch.
var ErrBadOpening = errors.New("pedersen: opening does not match commitment")

// CheckOpenings verifies a batch of commitment/opening pairs.
func (p *Params) CheckOpenings(cs []*Commitment, os []*Opening) error {
	if len(cs) != len(os) {
		return fmt.Errorf("pedersen: %d commitments but %d openings", len(cs), len(os))
	}
	for i := range cs {
		if !p.Verify(cs[i], os[i].X, os[i].R) {
			return fmt.Errorf("%w (index %d)", ErrBadOpening, i)
		}
	}
	return nil
}
