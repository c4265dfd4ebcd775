package group

import (
	"bytes"
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/field"
)

// The differential suite for the arithmetic backend swap: the fast fp256
// group behind P256() must be observationally identical to the reference
// (P256Generic, on crypto/elliptic's arithmetic) and to crypto/elliptic's
// P-256 — same generators, same canonical encodings of every computed element, same
// rejections. Transcript byte-identity across the whole protocol stack
// follows from encoding identity here (and is pinned end-to-end by
// TestPinnedTranscriptDigests in internal/vdp).

// encOf is the canonical encoding of an element.
func encOf(g Group, e Element) []byte { return g.Encode(e) }

// sameScalar materializes one scalar in both groups' (shared) field.
func sharedScalar(t *testing.T, fast, ref Group, v *big.Int) *field.Element {
	t.Helper()
	if fast.ScalarField() != ref.ScalarField() {
		t.Fatal("backends must share the scalar field instance")
	}
	return fast.ScalarField().FromBig(v)
}

func TestFastBackendParametersMatch(t *testing.T) {
	fast, ref := P256(), P256Generic()
	if fast.Name() != ref.Name() {
		t.Fatalf("names differ: %q vs %q", fast.Name(), ref.Name())
	}
	if fast.ElementLen() != ref.ElementLen() {
		t.Fatal("element lengths differ")
	}
	for _, pair := range []struct {
		label string
		a, b  Element
	}{
		{"generator", fast.Generator(), ref.Generator()},
		{"alt generator", fast.AltGenerator(), ref.AltGenerator()},
		{"identity", fast.Identity(), ref.Identity()},
	} {
		if !bytes.Equal(encOf(fast, pair.a), encOf(ref, pair.b)) {
			t.Fatalf("%s encodings differ between backends", pair.label)
		}
	}
	// Generator matches crypto/elliptic's base point.
	std := elliptic.P256().Params()
	dec, err := ref.Decode(encOf(fast, fast.Generator()))
	if err != nil {
		t.Fatal(err)
	}
	_ = dec
	one := fast.ScalarField().One()
	gEnc := encOf(fast, fast.Exp(fast.Generator(), one))
	var xb [32]byte
	std.Gx.FillBytes(xb[:])
	if !bytes.Equal(gEnc[1:], xb[:]) {
		t.Fatal("generator X differs from crypto/elliptic")
	}
}

// TestFastBackendOpsDifferential: randomized Exp/Op/Inv corpus — every
// result must encode identically on both backends, and scalar
// multiplications must agree with crypto/elliptic.
func TestFastBackendOpsDifferential(t *testing.T) {
	fast, ref := P256(), P256Generic()
	std := elliptic.P256()
	rng := rand.New(rand.NewSource(23))
	f := fast.ScalarField()

	for i := 0; i < 30; i++ {
		k1 := randScalar(fast, rng)
		k2 := randScalar(fast, rng)

		fe1, re1 := fast.Exp(fast.Generator(), k1), ref.Exp(ref.Generator(), k1)
		fe2, re2 := fast.Exp(fast.AltGenerator(), k2), ref.Exp(ref.AltGenerator(), k2)
		if !bytes.Equal(encOf(fast, fe1), encOf(ref, re1)) {
			t.Fatal("g^k encodings differ")
		}
		if !bytes.Equal(encOf(fast, fe2), encOf(ref, re2)) {
			t.Fatal("h^k encodings differ")
		}
		// crypto/elliptic cross-check for g^k1.
		if k1.BigInt().Sign() != 0 {
			sx, _ := std.ScalarBaseMult(k1.BigInt().Bytes())
			var xb [32]byte
			sx.FillBytes(xb[:])
			if !bytes.Equal(encOf(fast, fe1)[1:], xb[:]) {
				t.Fatal("g^k X coordinate differs from crypto/elliptic")
			}
		}

		fop, rop := fast.Op(fe1, fe2), ref.Op(re1, re2)
		if !bytes.Equal(encOf(fast, fop), encOf(ref, rop)) {
			t.Fatal("Op encodings differ")
		}
		finv, rinv := fast.Inv(fop), ref.Inv(rop)
		if !bytes.Equal(encOf(fast, finv), encOf(ref, rinv)) {
			t.Fatal("Inv encodings differ")
		}
		// Variable-base Exp on a composite element.
		fvar, rvar := fast.Exp(fop, k1), ref.Exp(rop, k1)
		if !bytes.Equal(encOf(fast, fvar), encOf(ref, rvar)) {
			t.Fatal("variable-base Exp encodings differ")
		}
		if !fast.Equal(fast.Op(fop, finv), fast.Identity()) {
			t.Fatal("a ∘ a⁻¹ != identity on fast backend")
		}
	}

	// Exponent edge cases: 0 and q-1 on both a generator and a composite.
	zero := f.Zero()
	qm1 := f.One().Neg()
	base := fast.Op(fast.Generator(), fast.AltGenerator())
	rbase := ref.Op(ref.Generator(), ref.AltGenerator())
	if !fast.Equal(fast.Exp(base, zero), fast.Identity()) {
		t.Fatal("a^0 != identity")
	}
	if !bytes.Equal(encOf(fast, fast.Exp(base, qm1)), encOf(ref, ref.Exp(rbase, qm1))) {
		t.Fatal("a^(q-1) encodings differ")
	}
	// a^(q-1) = a^-1 in a prime-order group.
	if !fast.Equal(fast.Exp(base, qm1), fast.Inv(base)) {
		t.Fatal("a^(q-1) != a^-1")
	}
	// Identity edge cases.
	if !fast.Equal(fast.Exp(fast.Identity(), qm1), fast.Identity()) {
		t.Fatal("identity^k != identity")
	}
	if !fast.Equal(fast.Inv(fast.Identity()), fast.Identity()) {
		t.Fatal("identity⁻¹ != identity")
	}
}

// TestFastBackendDecodeParity: both backends accept exactly the same
// encodings and the decoded elements are interchangeable.
func TestFastBackendDecodeParity(t *testing.T) {
	fast, ref := P256(), P256Generic()
	rng := rand.New(rand.NewSource(24))

	// Valid corpus round-trips through both backends.
	for i := 0; i < 10; i++ {
		k := randScalar(fast, rng)
		enc := encOf(fast, fast.Exp(fast.Generator(), k))
		fe, ferr := fast.Decode(enc)
		re, rerr := ref.Decode(enc)
		if ferr != nil || rerr != nil {
			t.Fatalf("decode failed: fast=%v ref=%v", ferr, rerr)
		}
		if !bytes.Equal(encOf(fast, fe), encOf(ref, re)) {
			t.Fatal("decoded elements re-encode differently")
		}
	}
	idEnc := encOf(fast, fast.Identity())
	if fe, err := fast.Decode(idEnc); err != nil || !fast.Equal(fe, fast.Identity()) {
		t.Fatalf("identity decode: %v", err)
	}

	// Rejection corpus: wrong length, bad prefix, x >= p, off-curve x,
	// dirty identity padding. Both backends must reject all of them.
	p := big.NewInt(0)
	p.SetString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	overP := make([]byte, 33)
	overP[0] = 0x02
	p.FillBytes(overP[1:])
	offCurve := make([]byte, 33)
	offCurve[0] = 0x03
	offCurve[32] = 0x01
	badInf := make([]byte, 33)
	badInf[16] = 0x80
	badPrefix := append([]byte{0x04}, idEnc[1:]...)
	short := idEnc[:32]
	long := append(append([]byte{}, idEnc...), 0x00)
	for i, b := range [][]byte{overP, offCurve, badInf, badPrefix, short, long, nil} {
		if _, err := fast.Decode(b); err == nil {
			t.Fatalf("case %d: fast backend accepted malformed encoding", i)
		}
		if _, err := ref.Decode(b); err == nil {
			t.Fatalf("case %d: reference backend accepted malformed encoding", i)
		}
	}
}

// TestFastBackendHashToElement: the nothing-up-my-sleeve derivation is
// bit-identical across backends, over several domains and messages (this
// is what keeps h, and therefore all Pedersen parameters, unchanged). The
// reference shares no code with the fast one: its reduction and square
// root are math/big's and crypto/elliptic's.
func TestFastBackendHashToElement(t *testing.T) {
	fast, ref := P256(), P256Generic()
	for _, domain := range []string{"diff-test/v1", "pedersen-h/v1", "microbench/base/v1", "d1", ""} {
		for _, msg := range []string{"", "a", "the quick brown fox", string(encOf(fast, fast.Generator()))} {
			fe := fast.HashToElement(domain, []byte(msg))
			re := ref.HashToElement(domain, []byte(msg))
			if !bytes.Equal(encOf(fast, fe), encOf(ref, re)) {
				t.Fatalf("HashToElement(%q, %x) differs between backends", domain, msg)
			}
		}
	}
}

// TestScalarFieldIsGroupOrder: the scalar field's literal modulus is
// crypto/elliptic's group order, and prime — the check field.New would make
// at run time, which the group's setup skips for its literal.
func TestScalarFieldIsGroupOrder(t *testing.T) {
	n := P256().ScalarField().Modulus()
	if n.Cmp(elliptic.P256().Params().N) != 0 {
		t.Fatal("P-256 scalar field modulus is not the group order")
	}
	if !n.ProbablyPrime(64) {
		t.Fatal("P-256 scalar field modulus is not prime")
	}
}

// TestFixedBasePowers: the native fixed-base interface agrees with plain
// Exp on h and composes into commitments correctly.
func TestFixedBasePowers(t *testing.T) {
	fast := P256()
	fb, ok := fast.(FixedBasePowers)
	if !ok {
		t.Fatal("fast P-256 backend must implement FixedBasePowers")
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 10; i++ {
		x, r := randScalar(fast, rng), randScalar(fast, rng)
		if !fast.Equal(fb.ExpAltGenerator(r), fast.Exp(fast.AltGenerator(), r)) {
			t.Fatal("ExpAltGenerator != Exp(h)")
		}
		want := fast.Op(fast.Exp(fast.Generator(), x), fast.Exp(fast.AltGenerator(), r))
		if !fast.Equal(fb.CommitGenerators(x, r), want) {
			t.Fatal("CommitGenerators != g^x ∘ h^r")
		}
	}
	// Zero scalars.
	zero := fast.ScalarField().Zero()
	if !fast.Equal(fb.CommitGenerators(zero, zero), fast.Identity()) {
		t.Fatal("Com(0,0) != identity")
	}
}

// TestNativeMultiExpDifferential: the native Pippenger path behind
// MultiExpParallel equals the naive product, with the satellite edge
// cases: identity bases mixed in, exponents ≡ 0 and ≡ q−1, and Jacobian
// (never-normalized) bases that exercise the shared batch inversion.
func TestNativeMultiExpDifferential(t *testing.T) {
	fast := P256()
	if _, ok := fast.(NativeMultiExp); !ok {
		t.Fatal("fast P-256 backend must implement NativeMultiExp")
	}
	f := fast.ScalarField()
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{1, 2, 7, 20, 65, 130} {
		bases := make([]Element, n)
		exps := make([]*field.Element, n)
		for i := 0; i < n; i++ {
			switch i % 4 {
			case 0:
				bases[i] = fast.Identity()
			case 1:
				// Jacobian element straight out of an Op: no cached affine.
				bases[i] = fast.Op(
					fast.Exp(fast.Generator(), randScalar(fast, rng)),
					fast.AltGenerator(),
				)
			default:
				bases[i] = fast.Exp(fast.Generator(), randScalar(fast, rng))
			}
			switch i % 5 {
			case 0:
				exps[i] = f.Zero()
			case 1:
				exps[i] = f.One().Neg()
			default:
				exps[i] = randScalar(fast, rng)
			}
		}
		want := multiExpNaive(fast, bases, exps)
		got := MultiExpParallel(fast, bases, exps, 4)
		if !fast.Equal(got, want) {
			t.Fatalf("n=%d: native multiexp != naive product", n)
		}
	}
	// Empty product.
	if !fast.Equal(MultiExpParallel(fast, nil, nil, 0), fast.Identity()) {
		t.Fatal("empty native multiexp != identity")
	}
}

// TestNormalizeBatch: the shared-inversion normalisation leaves every
// element encoding to the bytes its own inversion would have produced —
// Jacobian sums, decoded (already affine) elements, the identity reached as
// a − a, and a batch of nothing but identities — and is a no-op on a group
// whose elements are always canonical.
func TestNormalizeBatch(t *testing.T) {
	fast := P256()
	rng := rand.New(rand.NewSource(27))
	build := func() []Element {
		rng := rand.New(rand.NewSource(28))
		var out []Element
		for i := 0; i < 9; i++ {
			a := fast.Exp(fast.Generator(), randScalar(fast, rng))
			switch i % 3 {
			case 0:
				out = append(out, fast.Op(a, fast.AltGenerator())) // Jacobian only
			case 1:
				dec, err := fast.Decode(fast.Encode(a))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, dec) // affine already cached
			default:
				out = append(out, fast.Op(a, fast.Inv(a))) // identity with Z = 0
			}
		}
		return out
	}
	one, batched := build(), build()
	NormalizeBatch(fast, batched)
	for i := range one {
		if !bytes.Equal(fast.Encode(batched[i]), fast.Encode(one[i])) {
			t.Fatalf("element %d encodes differently after NormalizeBatch", i)
		}
	}
	a := fast.Exp(fast.Generator(), randScalar(fast, rng))
	ids := []Element{fast.Op(a, fast.Inv(a)), fast.Op(fast.Inv(a), a)}
	NormalizeBatch(fast, ids)
	for _, id := range ids {
		if !bytes.Equal(fast.Encode(id), fast.Encode(fast.Identity())) {
			t.Fatal("identity encodes differently after NormalizeBatch")
		}
	}
	NormalizeBatch(fast, nil)
	ff := Schnorr2048()
	NormalizeBatch(ff, []Element{ff.Generator()})
}

// TestPippengerGenericDifferential: the generic bucket method equals
// Straus and the naive product on both backends, across the window
// selection table, including identity bases and extreme exponents.
func TestPippengerGenericDifferential(t *testing.T) {
	for _, g := range []Group{Schnorr2048(), P256Generic()} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			f := g.ScalarField()
			rng := rand.New(rand.NewSource(27))
			for _, n := range []int{1, 3, 64, 130} {
				bases := make([]Element, n)
				exps := make([]*field.Element, n)
				for i := 0; i < n; i++ {
					if i%6 == 2 {
						bases[i] = g.Identity()
					} else {
						bases[i] = g.Exp(g.Generator(), randScalar(g, rng))
					}
					switch i % 5 {
					case 0:
						exps[i] = f.Zero()
					case 1:
						exps[i] = f.One().Neg()
					default:
						exps[i] = randScalar(g, rng)
					}
				}
				want := MultiExpStraus(g, bases, exps)
				got := MultiExpPippenger(g, bases, exps)
				if !g.Equal(got, want) {
					t.Fatalf("n=%d: Pippenger != Straus", n)
				}
			}
			// All-zero exponents and empty input.
			if !g.Equal(MultiExpPippenger(g, []Element{g.Generator()}, []*field.Element{f.Zero()}), g.Identity()) {
				t.Fatal("Pippenger of zero exponent != identity")
			}
			if !g.Equal(MultiExpPippenger(g, nil, nil), g.Identity()) {
				t.Fatal("empty Pippenger != identity")
			}
		})
	}
}

func TestPippengerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := P256()
	MultiExpPippenger(g, []Element{g.Generator()}, nil)
}

// TestGenericGroupAxiomsOnReference runs a light axiom pass over the
// reference backend (the full suite in group_test.go exercises the fast
// backend via P256()).
func TestGenericGroupAxiomsOnReference(t *testing.T) {
	g := P256Generic()
	rng := rand.New(rand.NewSource(28))
	a := g.Exp(g.Generator(), randScalar(g, rng))
	b := g.Exp(g.Generator(), randScalar(g, rng))
	if !g.Equal(g.Op(a, b), g.Op(b, a)) {
		t.Fatal("commutativity broken")
	}
	if !g.Equal(g.Op(a, g.Identity()), a) {
		t.Fatal("identity broken")
	}
	if !g.Equal(g.Op(a, g.Inv(a)), g.Identity()) {
		t.Fatal("inverse broken")
	}
}

func BenchmarkMultiExpPippenger(b *testing.B) {
	for _, g := range []Group{Schnorr2048(), P256()} {
		g := g
		rng := rand.New(rand.NewSource(29))
		const n = 256
		bases := make([]Element, n)
		exps := make([]*field.Element, n)
		for i := 0; i < n; i++ {
			bases[i] = g.Exp(g.Generator(), randScalar(g, rng))
			exps[i] = randScalar(g, rng)
		}
		b.Run(g.Name()+"/straus", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MultiExpStraus(g, bases, exps)
			}
		})
		b.Run(g.Name()+"/pippenger-or-native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MultiExpParallel(g, bases, exps, 1)
			}
		})
	}
}
