package ec

// A generic short Weierstrass curve y² = x³ + ax + b over a prime field, on
// math/big (internal/field): Jacobian point arithmetic, windowed scalar
// multiplication, canonical compressed encodings and a try-and-increment
// hash-to-point. It shares no code with the fixed-width P-256 of
// fast256.go, which the tests hold to it (reference_test.go adds its group
// law and decoders); crypto/elliptic cross-checks both. No program uses it.

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/field"
)

// Curve describes a short Weierstrass curve of prime order. Curves are
// immutable after construction and safe for concurrent use.
type Curve struct {
	name string
	p    *field.Field // coordinate field GF(p)
	n    *field.Field // scalar field GF(n), n = group order (prime)
	a, b *field.Element
	gx   *field.Element
	gy   *field.Element

	// sqrtExp = (p+1)/4 for p ≡ 3 (mod 4); used by Y recovery.
	sqrtExp *big.Int
}

// NewCurve validates the parameters and constructs a curve. It requires the
// base point to be on the curve, the coordinate prime to satisfy
// p ≡ 3 (mod 4) (so square roots are a single exponentiation), and the group
// order n to be prime (checked by the field constructor). The curve order is
// verified by checking n·G = O.
func NewCurve(name string, p, n *big.Int, a, b, gx, gy *big.Int) (*Curve, error) {
	pf, err := field.New(p)
	if err != nil {
		return nil, fmt.Errorf("ec: coordinate field: %w", err)
	}
	nf, err := field.New(n)
	if err != nil {
		return nil, fmt.Errorf("ec: scalar field: %w", err)
	}
	if new(big.Int).And(p, big.NewInt(3)).Int64() != 3 {
		return nil, errors.New("ec: coordinate prime must be ≡ 3 (mod 4)")
	}
	c := &Curve{
		name:    name,
		p:       pf,
		n:       nf,
		a:       pf.FromBig(a),
		b:       pf.FromBig(b),
		gx:      pf.FromBig(gx),
		gy:      pf.FromBig(gy),
		sqrtExp: new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2),
	}
	if !c.isOnCurve(c.gx, c.gy) {
		return nil, errors.New("ec: base point not on curve")
	}
	// Verify the claimed order with an unreduced multiplication (ScalarMult
	// reduces mod n, which would make this check vacuous).
	if !c.scalarMultRaw(c.Generator(), nf.Modulus()).IsInfinity() {
		return nil, errors.New("ec: n·G != O, wrong group order")
	}
	return c, nil
}

// MustNewCurve is NewCurve for hardcoded known-good parameters.
func MustNewCurve(name string, p, n *big.Int, a, b, gx, gy *big.Int) *Curve {
	c, err := NewCurve(name, p, n, a, b, gx, gy)
	if err != nil {
		panic(err)
	}
	return c
}

// ScalarField returns GF(n) where n is the (prime) group order.
func (c *Curve) ScalarField() *field.Field { return c.n }

// CoordinateField returns GF(p).
func (c *Curve) CoordinateField() *field.Field { return c.p }

// Generator returns the standard base point G.
func (c *Curve) Generator() *Point {
	return &Point{c: c, x: c.gx, y: c.gy, inf: false}
}

// Infinity returns the identity element O.
func (c *Curve) Infinity() *Point { return &Point{c: c, inf: true} }

func (c *Curve) isOnCurve(x, y *field.Element) bool {
	// y² == x³ + ax + b
	lhs := y.Square()
	rhs := x.Square().Mul(x).Add(c.a.Mul(x)).Add(c.b)
	return lhs.Equal(rhs)
}

// Point is an immutable affine point on a Curve (or the point at infinity).
type Point struct {
	c    *Curve
	x, y *field.Element
	inf  bool
}

// Curve returns the curve the point belongs to.
func (p *Point) Curve() *Curve { return p.c }

// IsInfinity reports whether p is the identity.
func (p *Point) IsInfinity() bool { return p.inf }

// XY returns copies of the affine coordinates; it panics for the identity,
// which has no affine representation.
func (p *Point) XY() (x, y *big.Int) {
	if p.inf {
		panic("ec: XY of point at infinity")
	}
	return p.x.BigInt(), p.y.BigInt()
}

// String implements fmt.Stringer.
func (p *Point) String() string {
	if p.inf {
		return p.c.name + "(O)"
	}
	return fmt.Sprintf("%s(%s, %s)", p.c.name, p.x, p.y)
}

// dbl returns 2x.
func dbl(x *field.Element) *field.Element { return x.Add(x) }

// inv returns x⁻¹ for a nonzero x.
func inv(x *field.Element) *field.Element {
	return x.Field().FromBig(new(big.Int).ModInverse(x.BigInt(), x.Field().Modulus()))
}

// jacobian holds a point in Jacobian projective coordinates:
// (X, Y, Z) represents affine (X/Z², Y/Z³); Z = 0 encodes the identity.
type jacobian struct {
	x, y, z *field.Element
}

func (c *Curve) toJacobian(p *Point) jacobian {
	if p.inf {
		return jacobian{c.p.One(), c.p.One(), c.p.Zero()}
	}
	return jacobian{p.x, p.y, c.p.One()}
}

func (c *Curve) fromJacobian(j jacobian) *Point {
	if j.z.IsZero() {
		return c.Infinity()
	}
	zinv := inv(j.z)
	zinv2 := zinv.Square()
	x := j.x.Mul(zinv2)
	y := j.y.Mul(zinv2.Mul(zinv))
	return &Point{c: c, x: x, y: y, inf: false}
}

// jacDouble returns 2P using the standard dbl-2007-bl-style formulas for
// general a (8 multiplications, 5 squarings).
func (c *Curve) jacDouble(p jacobian) jacobian {
	if p.z.IsZero() || p.y.IsZero() {
		return jacobian{c.p.One(), c.p.One(), c.p.Zero()}
	}
	xx := p.x.Square()
	yy := p.y.Square()
	yyyy := yy.Square()
	zz := p.z.Square()
	// S = 2*((X+YY)² - XX - YYYY)
	s := dbl(p.x.Add(yy).Square().Sub(xx).Sub(yyyy))
	// M = 3*XX + a*ZZ²
	m := dbl(xx).Add(xx).Add(c.a.Mul(zz.Square()))
	// X' = M² - 2S
	x3 := m.Square().Sub(dbl(s))
	// Y' = M*(S - X') - 8*YYYY
	y3 := m.Mul(s.Sub(x3)).Sub(dbl(dbl(dbl(yyyy))))
	// Z' = (Y+Z)² - YY - ZZ  (= 2YZ)
	z3 := p.y.Add(p.z).Square().Sub(yy).Sub(zz)
	return jacobian{x3, y3, z3}
}

// jacAdd returns P+Q (add-2007-bl), handling identity and doubling cases.
func (c *Curve) jacAdd(p, q jacobian) jacobian {
	if p.z.IsZero() {
		return q
	}
	if q.z.IsZero() {
		return p
	}
	z1z1 := p.z.Square()
	z2z2 := q.z.Square()
	u1 := p.x.Mul(z2z2)
	u2 := q.x.Mul(z1z1)
	s1 := p.y.Mul(q.z).Mul(z2z2)
	s2 := q.y.Mul(p.z).Mul(z1z1)
	if u1.Equal(u2) {
		if s1.Equal(s2) {
			return c.jacDouble(p)
		}
		return jacobian{c.p.One(), c.p.One(), c.p.Zero()} // P = -Q
	}
	h := u2.Sub(u1)
	i := dbl(h).Square()
	j := h.Mul(i)
	r := dbl(s2.Sub(s1))
	v := u1.Mul(i)
	x3 := r.Square().Sub(j).Sub(dbl(v))
	y3 := r.Mul(v.Sub(x3)).Sub(dbl(s1.Mul(j)))
	z3 := p.z.Add(q.z).Square().Sub(z1z1).Sub(z2z2).Mul(h)
	return jacobian{x3, y3, z3}
}

// scalarWindow is the window width (bits) for windowed scalar multiplication.
const scalarWindow = 4

// scalarMultRaw computes k·p for any non-negative k without reducing it
// modulo the group order.
func (c *Curve) scalarMultRaw(p *Point, k *big.Int) *Point {
	if k.Sign() == 0 || p.inf {
		return c.Infinity()
	}
	// Precompute 1p..15p.
	var table [1 << scalarWindow]jacobian
	table[0] = jacobian{c.p.One(), c.p.One(), c.p.Zero()}
	table[1] = c.toJacobian(p)
	for i := 2; i < len(table); i++ {
		if i%2 == 0 {
			table[i] = c.jacDouble(table[i/2])
		} else {
			table[i] = c.jacAdd(table[i-1], table[1])
		}
	}
	acc := jacobian{c.p.One(), c.p.One(), c.p.Zero()}
	bits := k.BitLen()
	// Round up to a window boundary.
	start := ((bits + scalarWindow - 1) / scalarWindow) * scalarWindow
	for i := start - scalarWindow; i >= 0; i -= scalarWindow {
		for j := 0; j < scalarWindow; j++ {
			acc = c.jacDouble(acc)
		}
		var w uint
		for j := scalarWindow - 1; j >= 0; j-- {
			w = w<<1 | k.Bit(i+j)
		}
		if w != 0 {
			acc = c.jacAdd(acc, table[w])
		}
	}
	return c.fromJacobian(acc)
}

// Encode returns the canonical SEC1-style compressed encoding: a sign byte
// (0x02/0x03 for even/odd Y) followed by the fixed-width X coordinate. The
// identity encodes as a single 0x00 byte padded to the same width so all
// encodings have equal length.
func (c *Curve) Encode(p *Point) []byte {
	w := c.p.ByteLen()
	out := make([]byte, 1+w)
	if p.inf {
		return out // all zeros
	}
	if p.y.Bit(0) == 1 {
		out[0] = 0x03
	} else {
		out[0] = 0x02
	}
	copy(out[1:], p.x.Bytes())
	return out
}

// recoverY solves y² = x³+ax+b for the root with the requested parity.
func (c *Curve) recoverY(x *field.Element, odd bool) (*field.Element, error) {
	rhs := x.Square().Mul(x).Add(c.a.Mul(x)).Add(c.b)
	y := c.p.FromBig(new(big.Int).Exp(rhs.BigInt(), c.sqrtExp, c.p.Modulus()))
	if !y.Square().Equal(rhs) {
		return nil, errors.New("ec: x is not on the curve")
	}
	if (y.Bit(0) == 1) != odd {
		y = y.Neg()
	}
	return y, nil
}

// HashToPoint maps arbitrary bytes to a curve point by try-and-increment:
// x = H(domain, msg, counter) reduced into GF(p) until x³+ax+b is a square.
// Each trial succeeds with probability ≈ 1/2, so the loop terminates after a
// handful of iterations. The discrete log of the output relative to G is
// unknown to everyone, which is exactly the property needed for the second
// Pedersen generator h.
func (c *Curve) HashToPoint(h func(data ...[]byte) []byte, domain string, msg []byte) *Point {
	for ctr := uint8(0); ; ctr++ {
		digest := h([]byte(domain), msg, []byte{ctr})
		x := c.p.Reduce(digest)
		y, err := c.recoverY(x, digest[len(digest)-1]&1 == 1)
		if err != nil {
			continue
		}
		p := &Point{c: c, x: x, y: y, inf: false}
		// All points are in the prime-order group since the cofactor is 1,
		// but avoid mapping to the identity.
		if !p.IsInfinity() {
			return p
		}
	}
}

// P256 returns the NIST P-256 curve (secp256r1), constructed from its
// published domain parameters. The curve has cofactor 1, so the full point
// group is the prime-order group needed by the commitment scheme.
func P256() *Curve {
	p, _ := new(big.Int).SetString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	n, _ := new(big.Int).SetString("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", 16)
	b, _ := new(big.Int).SetString("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b", 16)
	gx, _ := new(big.Int).SetString("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296", 16)
	gy, _ := new(big.Int).SetString("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5", 16)
	a := new(big.Int).Sub(p, big.NewInt(3)) // a = -3 mod p
	return MustNewCurve("P-256", p, n, a, b, gx, gy)
}

var p256 = P256()

// StdP256 returns a shared P-256 instance.
func StdP256() *Curve { return p256 }
