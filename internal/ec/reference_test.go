package ec

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/fp256"
)

// The generic curve's group law, decoding and hinted decoding, the bridge
// from its points to the fast backend's, and the fast backend's on-curve
// check: the references the tests hold the fixed-width P-256 code
// (fast256.go) to. No program needs them; they are kept as oracles.

// Equal reports whether two points on the same curve are equal.
func (p *Point) Equal(q *Point) bool {
	if p.c != q.c {
		return false
	}
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.Equal(q.x) && p.y.Equal(q.y)
}

// Neg returns -p (reflection across the x axis).
func (p *Point) Neg() *Point {
	if p.inf {
		return p
	}
	return &Point{c: p.c, x: p.x, y: p.y.Neg(), inf: false}
}

// Add returns p + q.
func (c *Curve) Add(p, q *Point) *Point {
	return c.fromJacobian(c.jacAdd(c.toJacobian(p), c.toJacobian(q)))
}

// Double returns 2p.
func (c *Curve) Double(p *Point) *Point {
	return c.fromJacobian(c.jacDouble(c.toJacobian(p)))
}

// ScalarMult returns k·p for a non-negative integer k (reduced mod n first;
// protocol code always passes canonical scalars). It uses a fixed 4-bit
// window over precomputed odd multiples.
func (c *Curve) ScalarMult(p *Point, k *big.Int) *Point {
	return c.scalarMultRaw(p, new(big.Int).Mod(k, c.n.Modulus()))
}

// ScalarBaseMult returns k·G.
func (c *Curve) ScalarBaseMult(k *big.Int) *Point {
	return c.ScalarMult(c.Generator(), k)
}

// Decode parses an encoding produced by Encode, rejecting any byte string
// that is not the canonical encoding of a curve point.
func (c *Curve) Decode(b []byte) (*Point, error) {
	w := c.p.ByteLen()
	if len(b) != 1+w {
		return nil, fmt.Errorf("ec: encoding has %d bytes, want %d", len(b), 1+w)
	}
	switch b[0] {
	case 0x00:
		for _, v := range b[1:] {
			if v != 0 {
				return nil, errors.New("ec: malformed identity encoding")
			}
		}
		return c.Infinity(), nil
	case 0x02, 0x03:
		x, err := c.p.FromBytes(b[1:])
		if err != nil {
			return nil, fmt.Errorf("ec: bad x coordinate: %w", err)
		}
		y, err := c.recoverY(x, b[0] == 0x03)
		if err != nil {
			return nil, err
		}
		return &Point{c: c, x: x, y: y, inf: false}, nil
	default:
		return nil, fmt.Errorf("ec: unknown point format byte %#x", b[0])
	}
}

// AppendY appends p's y coordinate to dst at the coordinate field's width,
// big-endian (zeros for the identity): the hint DecodeHinted checks.
func (c *Curve) AppendY(dst []byte, p *Point) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, c.p.ByteLen())...)
	if !p.inf {
		p.y.PutBytes(dst[n:])
	}
	return dst
}

// DecodeHinted is Decode given the point's y coordinate as AppendY writes
// it, checked instead of recovered: canonical, on the curve over x, with the
// prefix's parity. It accepts exactly when Decode accepts b and recovers
// y = hint (P256DecodeHinted is the fast backend's twin).
func (c *Curve) DecodeHinted(b, hint []byte) (*Point, error) {
	if len(hint) != c.p.ByteLen() {
		return nil, fmt.Errorf("ec: hint has %d bytes, want %d", len(hint), c.p.ByteLen())
	}
	if len(b) == 1+c.p.ByteLen() && b[0] == 0x00 {
		for _, v := range hint {
			if v != 0 {
				return nil, errWrongHint
			}
		}
		return c.Decode(b)
	}
	if len(b) != 1+c.p.ByteLen() || (b[0] != 0x02 && b[0] != 0x03) {
		return c.Decode(b) // its own refusal
	}
	x, err := c.p.FromBytes(b[1:])
	if err != nil {
		return nil, fmt.Errorf("ec: bad x coordinate: %w", err)
	}
	y, err := c.p.FromBytes(hint)
	if err != nil || (y.Bit(0) == 1) != (b[0] == 0x03) || !c.isOnCurve(x, y) {
		return nil, errWrongHint
	}
	return &Point{c: c, x: x, y: y}, nil
}

// RandomScalar samples a uniform scalar in [0, n).
func (c *Curve) RandomScalar(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	return rand.Int(r, c.n.Modulus())
}

// IsInfinity reports whether a is the identity.
func (a *P256Affine) IsInfinity() bool { return a.inf }

// IsOnCurve verifies y² = x³ - 3x + b for a finite affine point (the
// identity passes vacuously). Decode enforces this by construction; the
// tests check it.
func (a *P256Affine) IsOnCurve() bool {
	if a.inf {
		return true
	}
	var lhs, rhs, t fp256.Element
	fp.Sqr(&lhs, &a.y)
	fp.Sqr(&rhs, &a.x)
	fp.Mul(&rhs, &rhs, &a.x)
	fp.Double(&t, &a.x)
	fp.Add(&t, &t, &a.x)
	fp.Sub(&rhs, &rhs, &t)
	fp.Add(&rhs, &rhs, &p256B)
	return lhs.Equal(&rhs)
}

// P256AffineFromPoint converts a reference-curve point into the fast
// representation.
func P256AffineFromPoint(p *Point) (P256Affine, error) {
	if p.Curve() != StdP256() {
		return P256Affine{}, errors.New("ec: point is not on the shared P-256 curve")
	}
	if p.IsInfinity() {
		return P256Affine{inf: true}, nil
	}
	var a P256Affine
	if err := fp.FromBytes(&a.x, p.x.Bytes()); err != nil {
		return a, err
	}
	return a, fp.FromBytes(&a.y, p.y.Bytes())
}
