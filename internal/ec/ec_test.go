package ec

import (
	"crypto/elliptic"
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func sha256Concat(data ...[]byte) []byte {
	h := sha256.New()
	for _, d := range data {
		h.Write(d)
	}
	return h.Sum(nil)
}

func TestP256Params(t *testing.T) {
	c := StdP256()
	if c.name != "P-256" {
		t.Errorf("name = %q", c.name)
	}
	std := elliptic.P256().Params()
	if c.ScalarField().Modulus().Cmp(std.N) != 0 {
		t.Error("group order mismatch with crypto/elliptic")
	}
	if c.CoordinateField().Modulus().Cmp(std.P) != 0 {
		t.Error("coordinate prime mismatch with crypto/elliptic")
	}
	gx, gy := c.Generator().XY()
	if gx.Cmp(std.Gx) != 0 || gy.Cmp(std.Gy) != 0 {
		t.Error("generator mismatch with crypto/elliptic")
	}
}

func TestNewCurveRejectsBadParams(t *testing.T) {
	std := elliptic.P256().Params()
	a := new(big.Int).Sub(std.P, big.NewInt(3))
	// Base point off curve.
	if _, err := NewCurve("bad", std.P, std.N, a, std.B, std.Gx, new(big.Int).Add(std.Gy, big.NewInt(1))); err == nil {
		t.Error("accepted off-curve base point")
	}
	// Wrong order.
	if _, err := NewCurve("bad", std.P, big.NewInt(101), a, std.B, std.Gx, std.Gy); err == nil {
		t.Error("accepted wrong group order")
	}
	// Composite coordinate prime.
	if _, err := NewCurve("bad", big.NewInt(100), std.N, a, std.B, std.Gx, std.Gy); err == nil {
		t.Error("accepted composite coordinate modulus")
	}
}

// TestScalarMultAgainstStdlib cross-validates our Jacobian arithmetic
// against the independent crypto/elliptic implementation.
func TestScalarMultAgainstStdlib(t *testing.T) {
	c := StdP256()
	std := elliptic.P256()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		k := new(big.Int).Rand(rng, c.ScalarField().Modulus())
		if k.Sign() == 0 {
			continue
		}
		p := c.ScalarBaseMult(k)
		wantX, wantY := std.ScalarBaseMult(k.Bytes())
		gotX, gotY := p.XY()
		if gotX.Cmp(wantX) != 0 || gotY.Cmp(wantY) != 0 {
			t.Fatalf("k·G mismatch for k=%v", k)
		}
	}
}

func TestAddAgainstStdlib(t *testing.T) {
	c := StdP256()
	std := elliptic.P256()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		k1 := new(big.Int).Rand(rng, c.ScalarField().Modulus())
		k2 := new(big.Int).Rand(rng, c.ScalarField().Modulus())
		p1 := c.ScalarBaseMult(k1)
		p2 := c.ScalarBaseMult(k2)
		sum := c.Add(p1, p2)
		x1, y1 := p1.XY()
		x2, y2 := p2.XY()
		wantX, wantY := std.Add(x1, y1, x2, y2)
		gotX, gotY := sum.XY()
		if gotX.Cmp(wantX) != 0 || gotY.Cmp(wantY) != 0 {
			t.Fatalf("point addition mismatch at i=%d", i)
		}
	}
}

func TestGroupLaws(t *testing.T) {
	c := StdP256()
	n := c.ScalarField().Modulus()
	gen := func(seed int64) (*Point, *Point, *Point) {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Point { return c.ScalarBaseMult(new(big.Int).Rand(rng, n)) }
		return mk(), mk(), mk()
	}
	props := map[string]func(p, q, r *Point) bool{
		"commutative": func(p, q, _ *Point) bool { return c.Add(p, q).Equal(c.Add(q, p)) },
		"associative": func(p, q, r *Point) bool {
			return c.Add(c.Add(p, q), r).Equal(c.Add(p, c.Add(q, r)))
		},
		"identity":       func(p, _, _ *Point) bool { return c.Add(p, c.Infinity()).Equal(p) },
		"inverse":        func(p, _, _ *Point) bool { return c.Add(p, p.Neg()).IsInfinity() },
		"double-is-add":  func(p, _, _ *Point) bool { return c.Double(p).Equal(c.Add(p, p)) },
		"neg-involution": func(p, _, _ *Point) bool { return p.Neg().Neg().Equal(p) },
	}
	for name, prop := range props {
		fn := func(seed int64) bool {
			p, q, r := gen(seed)
			return prop(p, q, r)
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestScalarMultHomomorphism(t *testing.T) {
	c := StdP256()
	n := c.ScalarField().Modulus()
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k1 := new(big.Int).Rand(rng, n)
		k2 := new(big.Int).Rand(rng, n)
		// (k1+k2)G == k1·G + k2·G
		lhs := c.ScalarBaseMult(new(big.Int).Add(k1, k2))
		rhs := c.Add(c.ScalarBaseMult(k1), c.ScalarBaseMult(k2))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestScalarMultEdgeCases(t *testing.T) {
	c := StdP256()
	g := c.Generator()
	if !c.ScalarMult(g, big.NewInt(0)).IsInfinity() {
		t.Error("0·G should be O")
	}
	if !c.ScalarMult(g, big.NewInt(1)).Equal(g) {
		t.Error("1·G should be G")
	}
	if !c.ScalarMult(c.Infinity(), big.NewInt(5)).IsInfinity() {
		t.Error("k·O should be O")
	}
	n := c.ScalarField().Modulus()
	if !c.ScalarMult(g, n).IsInfinity() {
		t.Error("n·G should be O")
	}
	// (n-1)·G = -G
	nm1 := new(big.Int).Sub(n, big.NewInt(1))
	if !c.ScalarMult(g, nm1).Equal(g.Neg()) {
		t.Error("(n-1)·G should be -G")
	}
	// Scalars are reduced mod n: (n+2)·G = 2·G.
	np2 := new(big.Int).Add(n, big.NewInt(2))
	if !c.ScalarMult(g, np2).Equal(c.Double(g)) {
		t.Error("(n+2)·G should be 2G")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := StdP256()
	rng := rand.New(rand.NewSource(3))
	pts := []*Point{c.Infinity(), c.Generator(), c.Generator().Neg()}
	for i := 0; i < 16; i++ {
		k := new(big.Int).Rand(rng, c.ScalarField().Modulus())
		pts = append(pts, c.ScalarBaseMult(k))
	}
	for _, p := range pts {
		enc := c.Encode(p)
		if len(enc) != 1+c.CoordinateField().ByteLen() {
			t.Fatalf("encoding length %d", len(enc))
		}
		q, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !q.Equal(p) {
			t.Fatalf("round trip failed for %v", p)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	c := StdP256()
	w := c.CoordinateField().ByteLen()
	bad := [][]byte{
		nil,
		{0x02},
		make([]byte, w),                          // too short by one
		append([]byte{0x05}, make([]byte, w)...), // unknown prefix
		append([]byte{0x00}, append(make([]byte, w-1), 1)...), // non-zero identity padding
	}
	// x not on curve: x=0 gives rhs=b; b is not a QR for P-256? Construct a
	// guaranteed-bad x by searching.
	for x := int64(0); x < 20; x++ {
		buf := append([]byte{0x02}, big.NewInt(x).FillBytes(make([]byte, w))...)
		if _, err := c.Decode(buf); err != nil {
			bad = append(bad, buf)
			break
		}
	}
	for _, b := range bad {
		if _, err := c.Decode(b); err == nil {
			t.Errorf("Decode accepted %x", b)
		}
	}
}

func TestHashToPoint(t *testing.T) {
	c := StdP256()
	p1 := c.HashToPoint(sha256Concat, "test", []byte("message one"))
	p2 := c.HashToPoint(sha256Concat, "test", []byte("message one"))
	p3 := c.HashToPoint(sha256Concat, "test", []byte("message two"))
	p4 := c.HashToPoint(sha256Concat, "other-domain", []byte("message one"))
	if !p1.Equal(p2) {
		t.Error("HashToPoint not deterministic")
	}
	if p1.Equal(p3) || p1.Equal(p4) {
		t.Error("HashToPoint collisions across inputs/domains")
	}
	x, y := p1.XY()
	std := elliptic.P256()
	if !std.IsOnCurve(x, y) {
		t.Error("HashToPoint output not on curve (per stdlib check)")
	}
}

func TestRandomScalar(t *testing.T) {
	c := StdP256()
	k, err := c.RandomScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	if k.Sign() < 0 || k.Cmp(c.ScalarField().Modulus()) >= 0 {
		t.Error("scalar out of range")
	}
}

func TestXYOfInfinityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StdP256().Infinity().XY()
}

func TestPointStringAndCurve(t *testing.T) {
	c := StdP256()
	if s := c.Infinity().String(); s != "P-256(O)" {
		t.Errorf("infinity prints as %q", s)
	}
	gx, gy := c.Generator().XY()
	if s, want := c.Generator().String(), fmt.Sprintf("P-256(%s, %s)", c.CoordinateField().FromBig(gx), c.CoordinateField().FromBig(gy)); s != want {
		t.Errorf("generator prints as %q, want %q", s, want)
	}
	for _, p := range []*Point{c.Generator(), c.Infinity(), c.ScalarBaseMult(big.NewInt(5))} {
		if p.Curve() != c {
			t.Errorf("%v does not report its curve", p)
		}
	}
}

// TestP256AffineFromPoint: the setup-time bridge into the fast backend
// keeps the point (the generator, the identity, a random multiple) and
// refuses a point of any curve but the shared P-256 instance, even one
// built from the same parameters.
func TestP256AffineFromPoint(t *testing.T) {
	c := StdP256()
	g := P256Generator()
	ga, err := P256AffineFromPoint(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	var gj P256Point
	gj.SetAffine(&ga)
	if !gj.Equal(&g) {
		t.Fatal("converted generator differs from P256Generator")
	}

	oa, err := P256AffineFromPoint(c.Infinity())
	if err != nil {
		t.Fatal(err)
	}
	var oj P256Point
	oj.Set(&g) // SetAffine must overwrite a non-identity point
	oj.SetAffine(&oa)
	if !oj.IsInfinity() {
		t.Fatal("converted identity is not the identity")
	}

	k := big.NewInt(0x5eed)
	pa, err := P256AffineFromPoint(c.ScalarBaseMult(k))
	if err != nil {
		t.Fatal(err)
	}
	var pj, want P256Point
	pj.SetAffine(&pa)
	want.ScalarMult(&g, limbsFromBigTest(k))
	if !pj.Equal(&want) {
		t.Fatal("converted k·G differs from the fast k·G")
	}

	std := elliptic.P256().Params()
	twin, err := NewCurve("P-256 twin", std.P, std.N, new(big.Int).Sub(std.P, big.NewInt(3)), std.B, std.Gx, std.Gy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := P256AffineFromPoint(twin.Generator()); err == nil {
		t.Fatal("a point of another curve instance was converted")
	}
}

func BenchmarkScalarBaseMult(b *testing.B) {
	c := StdP256()
	k, _ := c.RandomScalar(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScalarBaseMult(k)
	}
}

func BenchmarkAdd(b *testing.B) {
	c := StdP256()
	k1, _ := c.RandomScalar(nil)
	k2, _ := c.RandomScalar(nil)
	p := c.ScalarBaseMult(k1)
	q := c.ScalarBaseMult(k2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(p, q)
	}
}
