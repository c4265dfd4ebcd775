package ec

import (
	"bytes"
	"crypto/elliptic"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fp256"
)

// --- helpers bridging the three backends ---

// fastFromRef converts a reference-backend point into the fast Jacobian
// representation.
func fastFromRef(t *testing.T, p *Point) P256Point {
	t.Helper()
	a, err := P256AffineFromPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	var j P256Point
	j.SetAffine(&a)
	return j
}

// refFromFast converts a fast point back through its canonical encoding.
func refFromFast(t *testing.T, p *P256Point) *Point {
	t.Helper()
	var enc [33]byte
	a := p.ToAffine()
	a.Encode(enc[:])
	ref, err := StdP256().Decode(enc[:])
	if err != nil {
		t.Fatalf("re-decoding fast encoding: %v", err)
	}
	return ref
}

func randScalarBig(rng *rand.Rand) *big.Int {
	b := make([]byte, 32)
	rng.Read(b)
	return new(big.Int).Mod(new(big.Int).SetBytes(b), StdP256().ScalarField().Modulus())
}

func limbsFromBigTest(v *big.Int) fp256.Element {
	var b [32]byte
	v.FillBytes(b[:])
	return fp256.LimbsFromBytes(b[:])
}

// randFastPoint returns k·G for a random k on all three backends.
func randFastPoint(t *testing.T, rng *rand.Rand) (P256Point, *Point, *big.Int) {
	k := randScalarBig(rng)
	ref := StdP256().ScalarBaseMult(k)
	var fast P256Point
	g := P256Generator()
	fast.ScalarMult(&g, limbsFromBigTest(k))
	return fast, ref, k
}

// assertSame fails unless the fast point and the reference point have
// identical canonical encodings.
func assertSame(t *testing.T, label string, fast *P256Point, ref *Point) {
	t.Helper()
	var enc [33]byte
	a := fast.ToAffine()
	a.Encode(enc[:])
	if !bytes.Equal(enc[:], StdP256().Encode(ref)) {
		t.Fatalf("%s: fast and reference backends disagree\n fast %x\n ref  %x",
			label, enc[:], StdP256().Encode(ref))
	}
}

// TestFastGeneratorMatches: G itself round-trips identically.
func TestFastGeneratorMatches(t *testing.T) {
	g := P256Generator()
	assertSame(t, "generator", &g, StdP256().Generator())
	ga := g.ToAffine()
	if !ga.IsOnCurve() {
		t.Fatal("generator not on curve")
	}
}

// TestFastAddDoubleDifferential: randomized add/double corpus across the
// fast backend, the math/big reference, and crypto/elliptic.
func TestFastAddDoubleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	std := elliptic.P256()
	for i := 0; i < 60; i++ {
		fa, ra, ka := randFastPoint(t, rng)
		fb, rb, kb := randFastPoint(t, rng)

		var sum P256Point
		sum.Add(&fa, &fb)
		assertSame(t, "add", &sum, StdP256().Add(ra, rb))

		// crypto/elliptic cross-check via scalar recomputation.
		ax, ay := std.ScalarBaseMult(ka.Bytes())
		bx, by := std.ScalarBaseMult(kb.Bytes())
		sx, sy := std.Add(ax, ay, bx, by)
		refSum := refFromFast(t, &sum)
		gx, gy := refSum.XY()
		if gx.Cmp(sx) != 0 || gy.Cmp(sy) != 0 {
			t.Fatalf("add disagrees with crypto/elliptic at i=%d", i)
		}

		var dbl P256Point
		dbl.Double(&fa)
		assertSame(t, "double", &dbl, StdP256().Double(ra))

		// In-place aliasing: r aliasing p must match.
		alias := fa
		alias.Add(&alias, &fb)
		if !alias.Equal(&sum) {
			t.Fatal("aliased Add differs")
		}
		alias = fa
		alias.Double(&alias)
		if !alias.Equal(&dbl) {
			t.Fatal("aliased Double differs")
		}
	}
}

// TestFastAddSpecialCases: identity absorption, inverse annihilation,
// P+P routed through Add, and mixed addition parity with full addition.
func TestFastAddSpecialCases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fa, _, _ := randFastPoint(t, rng)
	var inf, r P256Point
	inf.SetInfinity()

	r.Add(&fa, &inf)
	if !r.Equal(&fa) {
		t.Fatal("P + O != P")
	}
	r.Add(&inf, &fa)
	if !r.Equal(&fa) {
		t.Fatal("O + P != P")
	}
	r.Add(&inf, &inf)
	if !r.IsInfinity() {
		t.Fatal("O + O != O")
	}

	var neg P256Point
	neg.Neg(&fa)
	r.Add(&fa, &neg)
	if !r.IsInfinity() {
		t.Fatal("P + (-P) != O")
	}

	var dbl1, dbl2 P256Point
	dbl1.Add(&fa, &fa) // same-point add must route to doubling
	dbl2.Double(&fa)
	if !dbl1.Equal(&dbl2) {
		t.Fatal("Add(P, P) != Double(P)")
	}

	// Mixed addition agrees with full addition on every special case.
	fb, _, _ := randFastPoint(t, rng)
	afb := fb.ToAffine()
	var mixed, full P256Point
	mixed.AddAffine(&fa, &afb)
	full.Add(&fa, &fb)
	if !mixed.Equal(&full) {
		t.Fatal("mixed add differs from full add")
	}
	mixed.AddAffine(&inf, &afb)
	if !mixed.Equal(&fb) {
		t.Fatal("mixed add O + Q != Q")
	}
	infAff := inf.ToAffine()
	mixed.AddAffine(&fa, &infAff)
	if !mixed.Equal(&fa) {
		t.Fatal("mixed add P + O != P")
	}
	afa := fa.ToAffine()
	mixed.AddAffine(&fa, &afa)
	dbl2.Double(&fa)
	if !mixed.Equal(&dbl2) {
		t.Fatal("mixed add P + P != 2P")
	}
	var negAff P256Affine
	negAff.Neg(&afa)
	mixed.AddAffine(&fa, &negAff)
	if !mixed.IsInfinity() {
		t.Fatal("mixed add P + (-P) != O")
	}
}

// TestFastScalarMultDifferential: random scalars against both reference
// backends, plus the wNAF boundary scalars — values whose width-5 NAF
// exercises maximal negative digits, long carry chains, and digit-set
// edges (2^k ± 1, runs of ones, limb boundaries, n-1, n-2).
func TestFastScalarMultDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	std := elliptic.P256()
	nMinus1 := new(big.Int).Sub(StdP256().ScalarField().Modulus(), big.NewInt(1))

	cases := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3),
		big.NewInt(15), big.NewInt(16), big.NewInt(17), // wNAF digit max/boundary
		big.NewInt(31), big.NewInt(32), big.NewInt(33),
		big.NewInt(0xff), big.NewInt(0x0f0f), big.NewInt(0xffff),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)),  // 2^64-1: limb carry
		new(big.Int).Lsh(big.NewInt(1), 64),                                   // 2^64
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)),  // 2^64+1
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1)), // 2^128-1
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(1)), // long run of ones
		nMinus1,
		new(big.Int).Sub(nMinus1, big.NewInt(1)), // n-2
		// Unreduced scalars at the very top of the 256-bit range: the
		// wNAF negative-digit add-back carries out of 4 limbs here
		// (regression: the carry used to be dropped, yielding -P for
		// k = 2^256-1).
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(15)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(16)),
	}
	for i := 0; i < 25; i++ {
		cases = append(cases, randScalarBig(rng))
	}
	g := P256Generator()
	for _, k := range cases {
		var fast P256Point
		fast.ScalarMult(&g, limbsFromBigTest(k))
		ref := StdP256().ScalarBaseMult(k)
		assertSame(t, "scalarmult k="+k.String(), &fast, ref)
		if k.Sign() != 0 {
			sx, sy := std.ScalarBaseMult(k.Bytes())
			got := refFromFast(t, &fast)
			gx, gy := got.XY()
			if gx.Cmp(sx) != 0 || gy.Cmp(sy) != 0 {
				t.Fatalf("scalarmult k=%v disagrees with crypto/elliptic", k)
			}
		} else if !fast.IsInfinity() {
			t.Fatal("0·G != O")
		}
	}

	// Variable base: k1·(k2·G) == (k1·k2 mod n)·G.
	for i := 0; i < 10; i++ {
		k1 := randScalarBig(rng)
		base, _, _ := randFastPoint(t, rng)
		var fast P256Point
		fast.ScalarMult(&base, limbsFromBigTest(k1))
		ref := StdP256().ScalarMult(refFromFast(t, &base), k1)
		assertSame(t, "variable-base scalarmult", &fast, ref)
	}

	// Scalar multiples of the identity stay the identity.
	var inf, r P256Point
	inf.SetInfinity()
	r.ScalarMult(&inf, limbsFromBigTest(nMinus1))
	if !r.IsInfinity() {
		t.Fatal("k·O != O")
	}
}

// TestFastBatchAffine: batch normalization equals pointwise normalization,
// with infinities interleaved at every position.
func TestFastBatchAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := make([]P256Point, 9)
	for i := range pts {
		if i%3 == 1 {
			pts[i].SetInfinity()
			continue
		}
		pts[i], _, _ = randFastPoint(t, rng)
	}
	out := make([]P256Affine, len(pts))
	P256BatchAffine(out, pts)
	for i := range pts {
		want := pts[i].ToAffine()
		if out[i].inf != want.inf {
			t.Fatalf("index %d: infinity flag mismatch", i)
		}
		if !out[i].inf {
			var a, b [33]byte
			out[i].Encode(a[:])
			want.Encode(b[:])
			if a != b {
				t.Fatalf("index %d: batch and pointwise normalization differ", i)
			}
		}
	}
	// Empty input is a no-op.
	P256BatchAffine(nil, nil)
}

// TestFastTable: fixed-base table multiplication matches plain wNAF
// multiplication, including the fused two-table accumulation.
func TestFastTable(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := P256Generator()
	h, _, _ := randFastPoint(t, rng)
	tg := NewP256Table(&g)
	th := NewP256Table(&h)
	for i := 0; i < 12; i++ {
		x, r := randScalarBig(rng), randScalarBig(rng)
		var want1, want2, want, got P256Point
		want1.ScalarMult(&g, limbsFromBigTest(x))
		want2.ScalarMult(&h, limbsFromBigTest(r))
		want.Add(&want1, &want2)

		got.SetInfinity()
		tg.AddMul(&got, limbsFromBigTest(x))
		th.AddMul(&got, limbsFromBigTest(r))
		if !got.Equal(&want) {
			t.Fatalf("fused table commit mismatch at i=%d", i)
		}
		tg.Mul(&got, limbsFromBigTest(x))
		if !got.Equal(&want1) {
			t.Fatal("table Mul mismatch")
		}
	}
	// Zero scalar: no windows touched.
	var got P256Point
	tg.Mul(&got, fp256.Element{})
	if !got.IsInfinity() {
		t.Fatal("table Mul(0) != O")
	}
}

// multiExpEveryWorkers computes one product at workers = 1 and requires
// every other worker count — more workers than windows included — to return
// the same Jacobian coordinates, not merely the same group element: which
// goroutine sums a window must not show in the result.
func multiExpEveryWorkers(t *testing.T, label string, points []P256Affine, scalars []fp256.Element) P256Point {
	t.Helper()
	ref := P256MultiExp(points, scalars, 1)
	for _, workers := range []int{2, 3, 8, 64} {
		if got := P256MultiExp(points, scalars, workers); got != ref {
			t.Fatalf("%s: workers=%d result differs in coordinates from workers=1", label, workers)
		}
	}
	return ref
}

// TestFastMultiExpDifferential: P256MultiExp against Σ ScalarMult at sizes
// on both sides of the small-product cut and across the window model's
// range, with the scalar mix a folded Σ-OR check produces — half to two
// thirds 128-bit batching coefficients, the rest full length — plus the
// values that sit on a window or class edge (0, 1, 2¹²⁸−1, 2¹²⁸, n−1) and
// points at infinity under short and long scalars alike.
func TestFastMultiExpDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	nMinus1 := new(big.Int).Sub(StdP256().ScalarField().Modulus(), big.NewInt(1))
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	short := func() *big.Int {
		b := make([]byte, 16)
		rng.Read(b)
		return new(big.Int).SetBytes(b)
	}
	// A pool of distinct points, reused cyclically: repeats land in the
	// same bucket and so also exercise the doubling branch of AddAffine.
	pool := make([]P256Point, 61)
	for i := range pool {
		pool[i], _, _ = randFastPoint(t, rng)
	}
	for _, n := range []int{0, 1, 3, 7, 8, 9, 33, 150, 191, 192, 6144} {
		if testing.Short() && n > 1000 {
			continue
		}
		points := make([]P256Affine, n)
		scalars := make([]fp256.Element, n)
		var want P256Point
		for i := 0; i < n; i++ {
			var k *big.Int
			switch i % 12 {
			case 0:
				k = big.NewInt(0)
			case 1:
				k = nMinus1
			case 2:
				k = big.NewInt(1)
			case 3:
				k = new(big.Int).Sub(two128, big.NewInt(1))
			case 4:
				k = two128
			case 5, 6, 7:
				k = randScalarBig(rng)
			default:
				k = short()
			}
			p := pool[i%len(pool)]
			if i%7 == 3 || i%13 == 9 { // under short (i = 3, 9, 10) and long (i = 17) scalars
				p.SetInfinity()
			}
			points[i] = p.ToAffine()
			scalars[i] = limbsFromBigTest(k)

			var term P256Point
			term.ScalarMult(&p, scalars[i])
			want.Add(&want, &term)
		}
		got := multiExpEveryWorkers(t, fmt.Sprintf("n=%d", n), points, scalars)
		if !got.Equal(&want) {
			t.Fatalf("n=%d: P256MultiExp disagrees with the naive sum", n)
		}
	}
}

// TestFastMultiExpAllShort: a product whose longest scalar is far below
// 256 bits counts its windows from that scalar, and one with nothing to
// add is the identity.
func TestFastMultiExpAllShort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, bits := range []int{0, 1, 5, 64, 129} {
		const n = 40 // past p256ParallelMultiExp: a 1-bit product is one window for 64 workers
		points := make([]P256Affine, n)
		scalars := make([]fp256.Element, n)
		var want P256Point
		for i := range points {
			p, _, _ := randFastPoint(t, rng)
			points[i] = p.ToAffine()
			k := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
			if i == 0 && bits > 0 {
				k.SetBit(k, bits-1, 1) // the longest scalar really is `bits` long
			}
			scalars[i] = limbsFromBigTest(k)
			var term P256Point
			term.ScalarMult(&p, scalars[i])
			want.Add(&want, &term)
		}
		got := multiExpEveryWorkers(t, fmt.Sprintf("bits=%d", bits), points, scalars)
		if !got.Equal(&want) {
			t.Fatalf("bits=%d: P256MultiExp disagrees with the naive sum", bits)
		}
	}
}

// TestFastMultiExpSmallStaysOnCaller: below p256ParallelMultiExp terms a
// product hands nothing to another goroutine whatever workers says — it
// allocates exactly what the one-worker call does — while one term more
// pays for the hand-off, which is what shows the probe can see one.
func TestFastMultiExpSmallStaysOnCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	points := make([]P256Affine, p256ParallelMultiExp)
	scalars := make([]fp256.Element, len(points))
	for i := range points {
		p, _, _ := randFastPoint(t, rng)
		points[i] = p.ToAffine()
		scalars[i] = limbsFromBigTest(randScalarBig(rng))
	}
	allocs := func(n, workers int) float64 {
		return testing.AllocsPerRun(20, func() { P256MultiExp(points[:n], scalars[:n], workers) })
	}
	for _, n := range []int{p256SmallMultiExp - 1, p256SmallMultiExp, p256ParallelMultiExp - 1} {
		if one, many := allocs(n, 1), allocs(n, 8); many != one {
			t.Errorf("%d terms: %v allocations at workers=8, %v at workers=1", n, many, one)
		}
	}
	if one, many := allocs(p256ParallelMultiExp, 1), allocs(p256ParallelMultiExp, 8); many <= one {
		t.Errorf("%d terms: %v allocations at workers=8, %v at workers=1 — the probe sees no hand-off", p256ParallelMultiExp, many, one)
	}
}

// TestPippengerWindowModel: the model's choices move the way the cost it
// minimises says they must — wider with more terms, never wider for a
// shorter scalar class — and stay inside the scratch bound.
func TestPippengerWindowModel(t *testing.T) {
	uniform := func(n, bits int) uint {
		var reach [258]int
		for b := 0; b <= bits; b++ {
			reach[b] = n
		}
		return p256PippengerWindow(&reach, bits)
	}
	prev := uint(0)
	for n := 8; n <= 1<<20; n *= 2 {
		c := uniform(n, 256)
		if c < prev || c < 2 || c > p256MaxWindow {
			t.Fatalf("window for %d terms is %d after %d", n, c, prev)
		}
		prev = c
	}
	// Two sizes worked by hand in EXPERIMENTS.md: the collapse's 2^c
	// general additions outweigh the fill well before c reaches log₂ n.
	if c := uniform(256, 256); c != 6 {
		t.Fatalf("256 full-length terms: window %d, want 6", c)
	}
	if c := uniform(8192, 256); c != 10 {
		t.Fatalf("8192 full-length terms: window %d, want 10", c)
	}
}

// TestFastMultiExpTopWindowCarry: scalars with a full top byte force the
// signed-digit borrow out of the 256-bit range — the extra carry window
// must absorb it (regression test for the overflow panic).
func TestFastMultiExpTopWindowCarry(t *testing.T) {
	// 0xff…ff (top byte full) mod n, and n-1 which also has 0xff top byte.
	nMinus1 := new(big.Int).Sub(StdP256().ScalarField().Modulus(), big.NewInt(1))
	g := P256Generator()
	points := make([]P256Affine, 40)
	scalars := make([]fp256.Element, 40)
	var want P256Point
	want.SetInfinity()
	for i := range points {
		points[i] = g.ToAffine()
		scalars[i] = limbsFromBigTest(nMinus1)
		var term P256Point
		term.ScalarMult(&g, scalars[i])
		want.Add(&want, &term)
	}
	got := P256MultiExp(points, scalars, 1)
	if !got.Equal(&want) {
		t.Fatal("top-window carry handled incorrectly")
	}
}

// TestFastEncodeDecode: canonical encodings round-trip and are
// byte-identical to the reference backend; all malformed encodings that
// the reference rejects are rejected.
func TestFastEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		fast, ref, _ := randFastPoint(t, rng)
		var enc [33]byte
		a := fast.ToAffine()
		a.Encode(enc[:])
		refEnc := StdP256().Encode(ref)
		if !bytes.Equal(enc[:], refEnc) {
			t.Fatal("encodings differ between backends")
		}
		back, err := P256DecodeAffine(enc[:])
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var j P256Point
		j.SetAffine(&back)
		if !j.Equal(&fast) {
			t.Fatal("decode round trip changed the point")
		}
	}

	// Identity round trip.
	var inf P256Point
	inf.SetInfinity()
	var enc [33]byte
	ia := inf.ToAffine()
	ia.Encode(enc[:])
	if !bytes.Equal(enc[:], make([]byte, 33)) {
		t.Fatal("identity does not encode as zeros")
	}
	back, err := P256DecodeAffine(enc[:])
	if err != nil || !back.IsInfinity() {
		t.Fatalf("identity decode: %v", err)
	}

	// Rejection corpus: every case the reference backend rejects.
	p := StdP256().CoordinateField().Modulus()
	overP := make([]byte, 33)
	overP[0] = 0x02
	p.FillBytes(overP[1:]) // x = p: non-canonical
	offCurve := make([]byte, 33)
	offCurve[0] = 0x02
	offCurve[32] = 0x01 // x=1: x³-3x+b is a non-residue on P-256
	badInf := make([]byte, 33)
	badInf[32] = 0x01
	badPrefix := make([]byte, 33)
	badPrefix[0] = 0x04
	cases := [][]byte{
		nil, {}, enc[:32], append(append([]byte{}, enc[:]...), 0),
		overP, offCurve, badInf, badPrefix,
	}
	for i, b := range cases {
		if _, err := P256DecodeAffine(b); err == nil {
			t.Fatalf("case %d: malformed encoding accepted", i)
		}
		if len(b) > 0 {
			if _, err := StdP256().Decode(b); err == nil {
				t.Fatalf("case %d: reference accepted what fast rejects", i)
			}
		}
	}

	// x = 5 really is off-curve for the reference too (corpus sanity).
	if _, err := StdP256().Decode(offCurve); err == nil {
		t.Fatal("offCurve corpus point is actually on the curve")
	}
}

// TestFastEqual: equality is representation-independent (different Z
// scalings of the same point compare equal).
func TestFastEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	fa, _, _ := randFastPoint(t, rng)
	fb, _, _ := randFastPoint(t, rng)
	// Rescale fa by adding and subtracting fb: same point, new Z.
	var scaled P256Point
	scaled.Add(&fa, &fb)
	var negb P256Point
	negb.Neg(&fb)
	scaled.Add(&scaled, &negb)
	if !scaled.Equal(&fa) {
		t.Fatal("rescaled point compares unequal")
	}
	if scaled.Equal(&fb) {
		t.Fatal("distinct points compare equal")
	}
	var inf P256Point
	inf.SetInfinity()
	if scaled.Equal(&inf) || inf.Equal(&scaled) {
		t.Fatal("finite point equals infinity")
	}
	var inf2 P256Point
	inf2.SetInfinity()
	if !inf.Equal(&inf2) {
		t.Fatal("infinity != infinity")
	}
}

func BenchmarkFastScalarMult(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	k := limbsFromBigTest(randScalarBig(rng))
	g := P256Generator()
	var r P256Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ScalarMult(&g, k)
	}
}

func BenchmarkFastTableMul(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	k := limbsFromBigTest(randScalarBig(rng))
	g := P256Generator()
	tg := NewP256Table(&g)
	var r P256Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.Mul(&r, k)
	}
}

// BenchmarkP256Decode decodes one compressed point: taking the square root
// (P256DecodeAffine, what every reader of a v1 arrival record pays per
// point) and checking a y hint instead (P256DecodeHinted, v2).
func BenchmarkP256Decode(b *testing.B) {
	seed := hintedSeeds()[0]
	enc, hint := seed[0], seed[1]
	b.Run("sqrt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := P256DecodeAffine(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hinted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := P256DecodeHinted(enc, hint); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFastMultiExp(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	const n = 1024
	points := make([]P256Affine, n)
	scalars := make([]fp256.Element, n)
	g := P256Generator()
	for i := range points {
		var jp P256Point
		jp.ScalarMult(&g, limbsFromBigTest(randScalarBig(rng)))
		points[i] = jp.ToAffine()
		scalars[i] = limbsFromBigTest(randScalarBig(rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		P256MultiExp(points, scalars, runtime.GOMAXPROCS(0))
	}
}

// hintedSeeds are (encoding, hint) pairs for the hinted decoders: for each
// of a few points, its own y, the other root p − y (right x, wrong parity),
// y + p where that fits in 32 bytes and p itself (non-canonical), a hint one
// byte short; the identity with a zero and a non-zero hint; and an off-curve
// x with a hint.
func hintedSeeds() [][2][]byte {
	rng := rand.New(rand.NewSource(23))
	p := StdP256().CoordinateField().Modulus()
	g := P256Generator()
	var out [][2][]byte
	for i := 0; i < 4; i++ {
		var fast P256Point
		fast.ScalarMult(&g, limbsFromBigTest(randScalarBig(rng)))
		a := fast.ToAffine()
		enc := make([]byte, 33)
		a.Encode(enc)
		y := a.AppendY(nil)
		yi := new(big.Int).SetBytes(y)
		other := new(big.Int).Sub(p, yi).FillBytes(make([]byte, 32))
		out = append(out, [2][]byte{enc, y}, [2][]byte{enc, other}, [2][]byte{enc, p.FillBytes(make([]byte, 32))},
			[2][]byte{enc, y[1:]})
		if over := new(big.Int).Add(yi, p); over.BitLen() <= 256 {
			out = append(out, [2][]byte{enc, over.FillBytes(make([]byte, 32))})
		}
	}
	zero := make([]byte, 33)
	one := make([]byte, 32)
	one[31] = 1
	offCurve := make([]byte, 33)
	offCurve[0], offCurve[32] = 0x02, 0x01
	return append(out, [2][]byte{zero, make([]byte, 32)}, [2][]byte{zero, one}, [2][]byte{offCurve, one})
}

// FuzzP256DecodeHinted holds the hinted decoders to the root-taking ones: a
// hinted decode succeeds exactly when the hint is 32 bytes equal to the y
// P256DecodeAffine computes, and then yields the same point; the reference
// curve's DecodeHinted agrees on both counts.
func FuzzP256DecodeHinted(f *testing.F) {
	for _, s := range hintedSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, enc, hint []byte) {
		plain, plainErr := P256DecodeAffine(enc)
		want := plainErr == nil && bytes.Equal(hint, plain.AppendY(nil))
		got, err := P256DecodeHinted(enc, hint)
		if (err == nil) != want {
			t.Fatalf("hinted decode of %x with hint %x: err %v, plain decode err %v", enc, hint, err, plainErr)
		}
		if err == nil && got != plain {
			t.Fatalf("hinted decode of %x yields a different point", enc)
		}
		ref, refErr := StdP256().DecodeHinted(enc, hint)
		if (refErr == nil) != want {
			t.Fatalf("reference hinted decode of %x with hint %x: err %v, want success %v", enc, hint, refErr, want)
		}
		if refErr == nil && !bytes.Equal(StdP256().AppendY(nil, ref), hint) {
			t.Fatalf("reference hinted decode of %x yields a different y", enc)
		}
	})
}
