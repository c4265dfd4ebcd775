package group

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"repro/internal/ec"
	"repro/internal/field"
)

// ecGroup adapts an elliptic curve from internal/ec to the Group interface.
// The group is written multiplicatively to match the paper's commitment
// notation even though curve arithmetic is conventionally additive: Op is
// point addition and Exp is scalar multiplication.
type ecGroup struct {
	name  string
	curve *ec.Curve
	g     *ecElem
	h     *ecElem
	id    *ecElem
}

type ecElem struct {
	g *ecGroup
	p *ec.Point
}

func (e *ecElem) GroupName() string { return e.g.name }
func (e *ecElem) String() string    { return e.p.String() }

var (
	p256Once sync.Once
	p256Std  *fastP256

	p256GenericOnce sync.Once
	p256GenericStd  *ecGroup
)

// P256 returns the shared NIST P-256 commitment group. It stands in for the
// paper's Ristretto/Curve25519 deployment (see DESIGN.md Substitutions):
// both are prime-order elliptic-curve groups with 256-bit scalars.
//
// The returned group runs on the fp256 fixed-width Montgomery backend
// (see p256fast.go); P256Generic exposes the math/big reference
// implementation of the same group. The two produce byte-identical
// encodings and transcripts — the differential tests in p256fast_test.go
// hold them to that.
func P256() Group {
	p256Once.Do(func() {
		p256Std = newFastP256()
	})
	return p256Std
}

// P256Generic returns the math/big reference implementation of the P-256
// commitment group: same curve, same generator derivation, same canonical
// encodings, evaluated through the generic ec.Curve arithmetic. It exists
// as the cross-check oracle for the fast backend.
func P256Generic() Group {
	p256GenericOnce.Do(func() {
		p256GenericStd = newECGroup("p256", ec.StdP256())
	})
	return p256GenericStd
}

func newECGroup(name string, curve *ec.Curve) *ecGroup {
	g := &ecGroup{name: name, curve: curve}
	g.id = &ecElem{g: g, p: curve.Infinity()}
	g.g = &ecElem{g: g, p: curve.Generator()}
	h := curve.HashToPoint(shaConcatFn, name+"/pedersen-h/v1", curve.Encode(curve.Generator()))
	g.h = &ecElem{g: g, p: h}
	return g
}

func shaConcatFn(data ...[]byte) []byte {
	h := sha256.New()
	for _, d := range data {
		h.Write(d)
	}
	return h.Sum(nil)
}

func (e *ecGroup) Name() string              { return e.name }
func (e *ecGroup) ScalarField() *field.Field { return e.curve.ScalarField() }
func (e *ecGroup) Generator() Element        { return e.g }
func (e *ecGroup) AltGenerator() Element     { return e.h }
func (e *ecGroup) Identity() Element         { return e.id }
func (e *ecGroup) ElementLen() int           { return 1 + e.curve.CoordinateField().ByteLen() }

func (e *ecGroup) elem(x Element) *ecElem {
	el, ok := x.(*ecElem)
	if !ok || el.g != e {
		panic("group: element does not belong to this EC group")
	}
	return el
}

func (e *ecGroup) Op(a, b Element) Element {
	return &ecElem{g: e, p: e.curve.Add(e.elem(a).p, e.elem(b).p)}
}

func (e *ecGroup) Inv(a Element) Element {
	return &ecElem{g: e, p: e.elem(a).p.Neg()}
}

func (e *ecGroup) Exp(a Element, k *field.Element) Element {
	return &ecElem{g: e, p: e.curve.ScalarMult(e.elem(a).p, k.BigInt())}
}

func (e *ecGroup) Equal(a, b Element) bool {
	return e.elem(a).p.Equal(e.elem(b).p)
}

func (e *ecGroup) Encode(a Element) []byte {
	return e.curve.Encode(e.elem(a).p)
}

func (e *ecGroup) Decode(b []byte) (Element, error) {
	p, err := e.curve.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("group: %s: %w", e.name, err)
	}
	return &ecElem{g: e, p: p}, nil
}

func (e *ecGroup) HintLen() int { return e.curve.CoordinateField().ByteLen() }

func (e *ecGroup) AppendHint(dst []byte, a Element) []byte {
	return e.curve.AppendY(dst, e.elem(a).p)
}

func (e *ecGroup) DecodeHinted(b, hint []byte) (Element, error) {
	p, err := e.curve.DecodeHinted(b, hint)
	if err != nil {
		return nil, fmt.Errorf("group: %s: %w", e.name, err)
	}
	return &ecElem{g: e, p: p}, nil
}

func (e *ecGroup) HashToElement(domain string, msg []byte) Element {
	return &ecElem{g: e, p: e.curve.HashToPoint(shaConcatFn, e.name+"/"+domain, msg)}
}

func (e *ecGroup) RandomScalar(r io.Reader) (*field.Element, error) {
	return e.curve.ScalarField().Rand(r)
}
