package group

import (
	"bytes"
	"crypto/elliptic"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/field"
)

// The reference implementation of the P-256 commitment group, which the
// differential tests hold the fixed-width backend (p256fast.go) to. It is
// crypto/elliptic and a few lines of try-and-increment, sharing no code
// with internal/ec: its arithmetic, its square roots and its encodings are
// the standard library's.

// ecGroup adapts crypto/elliptic's P-256 to the Group interface, written
// multiplicatively: Op is point addition and Exp is scalar multiplication.
type ecGroup struct {
	std  elliptic.Curve
	g, h *ecElem
	id   *ecElem
}

// ecElem is an affine point; (0, 0), which is not on the curve, is the
// identity, as crypto/elliptic represents it.
type ecElem struct {
	g    *ecGroup
	x, y *big.Int
}

func (e *ecElem) String() string { return fmt.Sprintf("p256(%x, %x)", e.x, e.y) }

func (e *ecElem) isIdentity() bool { return e.x.Sign() == 0 && e.y.Sign() == 0 }

var (
	p256GenericOnce sync.Once
	p256GenericStd  *ecGroup
)

// P256Generic returns the reference implementation of the P-256
// commitment group: same curve, same generator derivation, same canonical
// encodings as P256, with crypto/elliptic's arithmetic. It is the
// cross-check oracle for the fast backend, and the elliptic-curve group
// without native acceleration that the generic multi-exponentiation
// strategies run on.
func P256Generic() Group {
	p256GenericOnce.Do(func() {
		g := &ecGroup{std: elliptic.P256()}
		g.id = g.point(new(big.Int), new(big.Int))
		g.g = g.point(g.std.Params().Gx, g.std.Params().Gy)
		g.h = g.HashToElement("pedersen-h/v1", g.Encode(g.g)).(*ecElem)
		p256GenericStd = g
	})
	return p256GenericStd
}

func (e *ecGroup) point(x, y *big.Int) *ecElem { return &ecElem{g: e, x: x, y: y} }

func (e *ecGroup) elem(x Element) *ecElem {
	el, ok := x.(*ecElem)
	if !ok || el.g != e {
		panic("group: element does not belong to this EC group")
	}
	return el
}

func (e *ecGroup) Name() string              { return "p256" }
func (e *ecGroup) ScalarField() *field.Field { return P256().ScalarField() } // sharedScalar needs the one instance
func (e *ecGroup) Generator() Element        { return e.g }
func (e *ecGroup) AltGenerator() Element     { return e.h }
func (e *ecGroup) Identity() Element         { return e.id }
func (e *ecGroup) ElementLen() int           { return 33 }
func (e *ecGroup) HintLen() int              { return 32 }

func (e *ecGroup) Op(a, b Element) Element {
	pa, pb := e.elem(a), e.elem(b)
	return e.point(e.std.Add(pa.x, pa.y, pb.x, pb.y))
}

func (e *ecGroup) Inv(a Element) Element {
	pa := e.elem(a)
	if pa.isIdentity() {
		return pa
	}
	return e.point(pa.x, new(big.Int).Sub(e.std.Params().P, pa.y))
}

func (e *ecGroup) Exp(a Element, k *field.Element) Element {
	pa := e.elem(a)
	return e.point(e.std.ScalarMult(pa.x, pa.y, k.Bytes()))
}

func (e *ecGroup) Equal(a, b Element) bool {
	pa, pb := e.elem(a), e.elem(b)
	return pa.x.Cmp(pb.x) == 0 && pa.y.Cmp(pb.y) == 0
}

// Encode is the canonical compressed form: 0x02/0x03 by the parity of y,
// then x; the identity is 33 zero bytes.
func (e *ecGroup) Encode(a Element) []byte {
	pa := e.elem(a)
	if pa.isIdentity() {
		return make([]byte, 33)
	}
	return elliptic.MarshalCompressed(e.std, pa.x, pa.y)
}

func (e *ecGroup) Decode(b []byte) (Element, error) {
	if len(b) != 33 {
		return nil, fmt.Errorf("group: p256: encoding has %d bytes, want 33", len(b))
	}
	if bytes.Equal(b, make([]byte, 33)) {
		return e.id, nil
	}
	x, y := elliptic.UnmarshalCompressed(e.std, b)
	if x == nil {
		return nil, errors.New("group: p256: not the encoding of a curve point")
	}
	return e.point(x, y), nil
}

// AppendHint appends y, 32 bytes big-endian (zeros for the identity).
func (e *ecGroup) AppendHint(dst []byte, a Element) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, 32)...)
	e.elem(a).y.FillBytes(dst[n:])
	return dst
}

func (e *ecGroup) DecodeHinted(b, hint []byte) (Element, error) {
	if len(hint) != 32 {
		return nil, fmt.Errorf("group: p256: hint has %d bytes, want 32", len(hint))
	}
	a, err := e.Decode(b)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(e.AppendHint(nil, a), hint) {
		return nil, errors.New("group: p256: hint is not the point's y coordinate")
	}
	return a, nil
}

// HashToElement is try-and-increment: x = SHA-256(domain, msg, ctr) mod p,
// y of the digest's last bit's parity, the next ctr while x has no point.
func (e *ecGroup) HashToElement(domain string, msg []byte) Element {
	for ctr := byte(0); ; ctr++ {
		digest := shaConcat([]byte("p256/"+domain), msg, []byte{ctr})
		x := new(big.Int).Mod(new(big.Int).SetBytes(digest), e.std.Params().P)
		enc := make([]byte, 33)
		enc[0] = 0x02 | digest[31]&1
		x.FillBytes(enc[1:])
		if x, y := elliptic.UnmarshalCompressed(e.std, enc); x != nil {
			return e.point(x, y)
		}
	}
}

func (e *ecGroup) RandomScalar(r io.Reader) (*field.Element, error) {
	return e.ScalarField().Rand(r)
}
