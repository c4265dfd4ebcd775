package group

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/field"
)

// schnorrGroup is the prime-order subgroup G_q of Z*_p, |G_q| = q, where
// q | p-1. This is the "G_q ⊂ Z*_p based on the finite field discrete log
// problem" deployment from §6 of the paper. Elements are residues mod p that
// lie in the subgroup; membership is checked on decode via x^q ≡ 1 (mod p).
type schnorrGroup struct {
	name    string
	p       *big.Int     // 2048-bit prime
	q       *field.Field // 256-bit prime order of the subgroup
	g       *schnorrElem
	h       *schnorrElem
	one     *schnorrElem
	byteLen int
}

// schnorrElem is a subgroup member: a residue in [1, p).
type schnorrElem struct {
	g *schnorrGroup
	v *big.Int
}

func (e *schnorrElem) String() string {
	s := e.v.Text(16)
	if len(s) > 16 {
		s = s[:8] + "…" + s[len(s)-8:]
	}
	return e.g.name + "(0x" + s + ")"
}

// DSA-style domain parameters (L=2048, N=256) generated once with
// crypto/dsa.GenerateParameters and frozen here; NewSchnorr re-validates all
// algebraic relations at construction time, so a corrupted constant cannot
// yield a working group.
const (
	schnorrPHex = "accc9ccc69cccbcc05fedd33b2003bc4d07c56841de260876244ebb5bf78d2b76c5a2b78a35f58063e6f6f86f5cacd8a1f3a3b52da77a6d69a35a2237e1cfa69bfe87082e626dae405375aac2f16d5951e9bfc92c3ab5ecda113b0b7c4ae97a734c2836899e15a20a706ee8476efeef25459acc48d6086343768d9d3e2be39c9ed6c35d98675719d2cb9cc3d39af7366297b0ccc3d358780ae15655d6472053a2fbf1e313f2f4dcf14ec0850816cd060369f229e4f99a382ca28b75c8d7bea355c1e06d62dab39faf2266e9e69c7d3b13c60253fc1db9070275caac727e40f8941ceb036b3e711014f767e6da6b2a38f1388a4d3680791216b7e85e78f46d64d"
	schnorrQHex = "b28f6905db059d4ae911397fe7849540d64929ad48130719e48baea9653af857"
	schnorrGHex = "d42c76b3d89eb64d019863d3f7d0f29100eb0a9c70fae82cececa4900e8170401cc779ceff6dff6a3edccdeed57f6f1755fce6396317cad3be2169caed392b78185b8a98dd92bb13cb07c358ff0d58ea42a591b53a3202cef0cee0ff51faffa2bb6958df1906e725164bb451eb8232d43db23389a4a2f9a3c464656f069b1ab8d79a0020913d014562cf282fe8fdb5b1bc5ae1badeff382d696c79d63eda8a53f312f880dded5e04f1b7ebbc894a527570225d73d8529273a2e240697832efd353321bcaabcd43804440ab2ee9f68f1acde277e6ece87c27ca386306ddbf1471808b5f0ca690e40f9f904948f7613d881e50bd1c3909aa391ce83f7148c7ae7"
)

var (
	schnorrOnce sync.Once
	schnorrStd  *schnorrGroup
)

// Schnorr2048 returns the shared 2048-bit Schnorr group with 256-bit prime
// order subgroup.
func Schnorr2048() Group {
	schnorrOnce.Do(func() {
		p, ok := new(big.Int).SetString(schnorrPHex, 16)
		if !ok {
			panic("group: bad schnorr p constant")
		}
		q, ok := new(big.Int).SetString(schnorrQHex, 16)
		if !ok {
			panic("group: bad schnorr q constant")
		}
		g, ok := new(big.Int).SetString(schnorrGHex, 16)
		if !ok {
			panic("group: bad schnorr g constant")
		}
		grp, err := NewSchnorr("schnorr2048", p, q, g)
		if err != nil {
			panic(err)
		}
		schnorrStd = grp
	})
	return schnorrStd
}

// NewSchnorr constructs and validates a Schnorr group: p and q prime,
// q | p-1, and g a generator of the order-q subgroup (g != 1, g^q = 1).
// The second generator h is derived by hashing g's encoding to the subgroup,
// so log_g(h) is unknown.
func NewSchnorr(name string, p, q, g *big.Int) (*schnorrGroup, error) {
	if !p.ProbablyPrime(64) {
		return nil, errors.New("group: schnorr p is not prime")
	}
	qf, err := field.New(q)
	if err != nil {
		return nil, fmt.Errorf("group: schnorr q: %w", err)
	}
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	if new(big.Int).Mod(pm1, q).Sign() != 0 {
		return nil, errors.New("group: q does not divide p-1")
	}
	if g.Cmp(big.NewInt(1)) <= 0 || g.Cmp(p) >= 0 {
		return nil, errors.New("group: generator out of range")
	}
	if new(big.Int).Exp(g, q, p).Cmp(big.NewInt(1)) != 0 {
		return nil, errors.New("group: generator does not have order q")
	}
	grp := &schnorrGroup{
		name:    name,
		p:       new(big.Int).Set(p),
		q:       qf,
		byteLen: (p.BitLen() + 7) / 8,
	}
	grp.one = &schnorrElem{g: grp, v: big.NewInt(1)}
	grp.g = &schnorrElem{g: grp, v: new(big.Int).Set(g)}
	grp.h = grp.hashToElement("pedersen-h/v1", grp.encode(grp.g))
	if grp.h.v.Cmp(big.NewInt(1)) == 0 || grp.h.v.Cmp(grp.g.v) == 0 {
		return nil, errors.New("group: degenerate second generator")
	}
	return grp, nil
}

func (s *schnorrGroup) Name() string              { return s.name }
func (s *schnorrGroup) ScalarField() *field.Field { return s.q }
func (s *schnorrGroup) Generator() Element        { return s.g }
func (s *schnorrGroup) AltGenerator() Element     { return s.h }
func (s *schnorrGroup) Identity() Element         { return s.one }
func (s *schnorrGroup) ElementLen() int           { return s.byteLen }

func (s *schnorrGroup) elem(x Element) *schnorrElem {
	e, ok := x.(*schnorrElem)
	if !ok || e.g != s {
		panic("group: element does not belong to this schnorr group")
	}
	return e
}

func (s *schnorrGroup) Op(a, b Element) Element {
	ea, eb := s.elem(a), s.elem(b)
	v := new(big.Int).Mul(ea.v, eb.v)
	v.Mod(v, s.p)
	return &schnorrElem{g: s, v: v}
}

func (s *schnorrGroup) Inv(a Element) Element {
	ea := s.elem(a)
	return &schnorrElem{g: s, v: new(big.Int).ModInverse(ea.v, s.p)}
}

func (s *schnorrGroup) Exp(a Element, k *field.Element) Element {
	ea := s.elem(a)
	return &schnorrElem{g: s, v: new(big.Int).Exp(ea.v, k.BigInt(), s.p)}
}

func (s *schnorrGroup) Equal(a, b Element) bool {
	return s.elem(a).v.Cmp(s.elem(b).v) == 0
}

func (s *schnorrGroup) encode(e *schnorrElem) []byte {
	return e.v.FillBytes(make([]byte, s.byteLen))
}

func (s *schnorrGroup) Encode(a Element) []byte { return s.encode(s.elem(a)) }

func (s *schnorrGroup) Decode(b []byte) (Element, error) {
	if len(b) != s.byteLen {
		return nil, fmt.Errorf("group: schnorr encoding has %d bytes, want %d", len(b), s.byteLen)
	}
	v := new(big.Int).SetBytes(b)
	if v.Sign() <= 0 || v.Cmp(s.p) >= 0 {
		return nil, errors.New("group: schnorr element out of range")
	}
	// Subgroup membership: v^q ≡ 1 (mod p). Without this check a malicious
	// prover could smuggle elements of the full group Z*_p into commitments,
	// breaking soundness of the Σ-protocols.
	if new(big.Int).Exp(v, s.q.Modulus(), s.p).Cmp(big.NewInt(1)) != 0 {
		return nil, errors.New("group: element not in prime-order subgroup")
	}
	return &schnorrElem{g: s, v: v}, nil
}

// HintLen is zero: an encoding is the whole element, so Decode recovers
// nothing a hint could carry.
func (s *schnorrGroup) HintLen() int { return 0 }

func (s *schnorrGroup) AppendHint(dst []byte, a Element) []byte {
	s.elem(a)
	return dst
}

func (s *schnorrGroup) DecodeHinted(b, hint []byte) (Element, error) {
	if len(hint) != 0 {
		return nil, fmt.Errorf("group: schnorr hint has %d bytes, want 0", len(hint))
	}
	return s.Decode(b)
}

// hashToElement maps msg into the subgroup by hashing to Z*_p and raising to
// the cofactor (p-1)/q, which projects any residue into G_q. Re-hashes until
// the projection is not the identity.
func (s *schnorrGroup) hashToElement(domain string, msg []byte) *schnorrElem {
	cofactor := new(big.Int).Div(new(big.Int).Sub(s.p, big.NewInt(1)), s.q.Modulus())
	for ctr := uint8(0); ; ctr++ {
		// Expand to enough bytes to cover p by concatenating counter-keyed
		// digests.
		var buf []byte
		for block := uint8(0); len(buf) < s.byteLen+16; block++ {
			buf = append(buf, shaConcat([]byte(domain), msg, []byte{ctr, block})...)
		}
		v := new(big.Int).SetBytes(buf)
		v.Mod(v, s.p)
		if v.Sign() == 0 {
			continue
		}
		v.Exp(v, cofactor, s.p)
		if v.Cmp(big.NewInt(1)) != 0 {
			return &schnorrElem{g: s, v: v}
		}
	}
}

func (s *schnorrGroup) HashToElement(domain string, msg []byte) Element {
	return s.hashToElement(domain, msg)
}

func (s *schnorrGroup) RandomScalar(r io.Reader) (*field.Element, error) {
	return s.q.Rand(r)
}
