package field

import (
	"bytes"
	"crypto/elliptic"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// testField is a small prime field used where exhaustive checks are viable,
// and f256 is a 256-bit field matching the protocol deployment sizes.
var (
	smallQ = big.NewInt(101)
	fSmall = mustNew(smallQ)
	// Order of the P-256 scalar field.
	f256 = mustNew(elliptic.P256().Params().N)
)

func mustNew(q *big.Int) *Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

func TestNewRejectsBadModuli(t *testing.T) {
	cases := []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(-7),
		big.NewInt(1),
		big.NewInt(4),                       // too small and composite
		big.NewInt(100),                     // composite
		new(big.Int).Lsh(big.NewInt(1), 64), // 2^64, composite
	}
	for _, q := range cases {
		if _, err := New(q); err == nil {
			t.Errorf("New(%v) accepted invalid modulus", q)
		}
	}
}

func TestFieldEqual(t *testing.T) {
	f2 := mustNew(smallQ)
	if !fSmall.Equal(f2) {
		t.Error("fields with equal moduli must be Equal")
	}
	if fSmall.Equal(f256) {
		t.Error("fields with different moduli must not be Equal")
	}
	if fSmall.Equal(nil) {
		t.Error("field must not equal nil")
	}
}

func TestConstants(t *testing.T) {
	if !fSmall.Zero().IsZero() {
		t.Error("Zero is not zero")
	}
	if !fSmall.One().IsOne() {
		t.Error("One is not one")
	}
	if got := fSmall.One().Add(fSmall.One().Neg()); !got.IsZero() {
		t.Errorf("1 + (-1) = %v, want 0", got)
	}
}

func TestFromInt64Reduction(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 0}, {1, 1}, {100, 100}, {101, 0}, {102, 1}, {-1, 100}, {-101, 0}, {-102, 100},
	}
	for _, c := range cases {
		got, ok := fSmall.FromInt64(c.in).Int64()
		if !ok || got != c.want {
			t.Errorf("FromInt64(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for i := int64(0); i < 101; i++ {
		e := fSmall.FromInt64(i)
		b := e.Bytes()
		if len(b) != fSmall.ByteLen() {
			t.Fatalf("encoding width %d, want %d", len(b), fSmall.ByteLen())
		}
		back, err := fSmall.FromBytes(b)
		if err != nil {
			t.Fatalf("FromBytes(%x): %v", b, err)
		}
		if !back.Equal(e) {
			t.Fatalf("round trip %v -> %v", e, back)
		}
	}
}

func TestFromBytesRejectsNonCanonical(t *testing.T) {
	// 101 itself is not a canonical encoding (values must be < q).
	b := big.NewInt(101).FillBytes(make([]byte, fSmall.ByteLen()))
	if _, err := fSmall.FromBytes(b); err == nil {
		t.Error("FromBytes accepted value == q")
	}
	if _, err := fSmall.FromBytes([]byte{1, 2, 3}); err == nil {
		t.Error("FromBytes accepted wrong-width encoding")
	}
}

func TestReduceNeverFails(t *testing.T) {
	e := f256.Reduce(bytes.Repeat([]byte{0xff}, 64))
	if e.BigInt().Cmp(f256.Modulus()) >= 0 {
		t.Error("Reduce output not reduced")
	}
	if !f256.Reduce(nil).IsZero() {
		t.Error("Reduce(nil) should be zero")
	}
}

// randElem produces a pseudorandom element for property tests from quick's
// int64 seed stream.
func randElem(f *Field, rng *rand.Rand) *Element {
	buf := make([]byte, f.ByteLen()+8)
	rng.Read(buf)
	return f.Reduce(buf)
}

func propertyConfig() *quick.Config {
	return &quick.Config{MaxCount: 200}
}

func TestFieldAxioms(t *testing.T) {
	for _, f := range []*Field{fSmall, f256} {
		f := f
		gen := func(vals []int64) (a, b, c *Element) {
			rng := rand.New(rand.NewSource(vals[0]))
			return randElem(f, rng), randElem(f, rng), randElem(f, rng)
		}
		t.Run(f.String(), func(t *testing.T) {
			checks := map[string]func(a, b, c *Element) bool{
				"add commutes":  func(a, b, _ *Element) bool { return a.Add(b).Equal(b.Add(a)) },
				"add assoc":     func(a, b, c *Element) bool { return a.Add(b).Add(c).Equal(a.Add(b.Add(c))) },
				"mul commutes":  func(a, b, _ *Element) bool { return a.Mul(b).Equal(b.Mul(a)) },
				"mul assoc":     func(a, b, c *Element) bool { return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) },
				"distributive":  func(a, b, c *Element) bool { return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) },
				"add identity":  func(a, _, _ *Element) bool { return a.Add(f.Zero()).Equal(a) },
				"mul identity":  func(a, _, _ *Element) bool { return a.Mul(f.One()).Equal(a) },
				"add inverse":   func(a, _, _ *Element) bool { return a.Add(a.Neg()).IsZero() },
				"sub is addneg": func(a, b, _ *Element) bool { return a.Sub(b).Equal(a.Add(b.Neg())) },
				"double":        func(a, _, _ *Element) bool { return a.Double().Equal(a.Add(a)) },
				"square":        func(a, _, _ *Element) bool { return a.Square().Equal(a.Mul(a)) },
				"mul inverse": func(a, _, _ *Element) bool {
					if a.IsZero() {
						return true
					}
					return a.Mul(a.Inv()).IsOne()
				},
			}
			for name, prop := range checks {
				fn := func(seed int64) bool {
					a, b, c := gen([]int64{seed})
					return prop(a, b, c)
				}
				if err := quick.Check(fn, propertyConfig()); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestExpMatchesRepeatedMul(t *testing.T) {
	g := fSmall.FromInt64(3)
	acc := fSmall.One()
	for k := 0; k < 120; k++ {
		want := g.Exp(big.NewInt(int64(k)))
		if !acc.Equal(want) {
			t.Fatalf("3^%d = %v, want %v", k, want, acc)
		}
		acc = acc.Mul(g)
	}
}

func TestExpNegativeExponent(t *testing.T) {
	g := f256.FromInt64(7)
	got := g.Exp(big.NewInt(-3))
	want := g.Exp(big.NewInt(3)).Inv()
	if !got.Equal(want) {
		t.Errorf("g^-3 = %v, want %v", got, want)
	}
}

func TestFermatLittleTheorem(t *testing.T) {
	// a^(q-1) = 1 for a != 0: a strong self-check of Exp and the modulus.
	qm1 := new(big.Int).Sub(f256.Modulus(), big.NewInt(1))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10; i++ {
		a := randElem(f256, rng)
		if a.IsZero() {
			continue
		}
		if !a.Exp(qm1).IsOne() {
			t.Fatalf("a^(q-1) != 1 for a = %v", a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Inv of zero")
		}
	}()
	fSmall.Zero().Inv()
}

func TestCrossFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic combining elements of different fields")
		}
	}()
	fSmall.One().Add(f256.One())
}

func TestSum(t *testing.T) {
	xs := []*Element{fSmall.FromInt64(2), fSmall.FromInt64(3), fSmall.FromInt64(4)}
	if got, _ := fSmall.Sum(xs...).Int64(); got != 9 {
		t.Errorf("Sum = %d, want 9", got)
	}
	if !fSmall.Sum().IsZero() {
		t.Error("empty Sum should be zero")
	}
}

func TestRandIsReducedAndVaried(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		e, err := f256.Rand(nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.BigInt().Cmp(f256.Modulus()) >= 0 {
			t.Fatal("Rand output out of range")
		}
		seen[string(e.Bytes())] = true
	}
	if len(seen) < 60 {
		t.Errorf("Rand produced only %d distinct values out of 64", len(seen))
	}
}

func TestInnerProduct(t *testing.T) {
	a := []*Element{fSmall.FromInt64(1), fSmall.FromInt64(2), fSmall.FromInt64(3)}
	b := []*Element{fSmall.FromInt64(4), fSmall.FromInt64(5), fSmall.FromInt64(6)}
	got, _ := InnerProduct(a, b).Int64()
	if got != 32 {
		t.Errorf("InnerProduct = %d, want 32", got)
	}
}

func TestInnerProductMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	InnerProduct([]*Element{fSmall.One()}, nil)
}

func TestIsHigh(t *testing.T) {
	// q = 101, floor(q/2) = 50: values 51..100 are "high".
	if fSmall.FromInt64(50).IsHigh() {
		t.Error("50 should not be high for q=101")
	}
	if !fSmall.FromInt64(51).IsHigh() {
		t.Error("51 should be high for q=101")
	}
	if fSmall.Zero().IsHigh() {
		t.Error("0 should not be high")
	}
	if !fSmall.FromInt64(100).IsHigh() {
		t.Error("q-1 should be high")
	}
}

func TestStringForms(t *testing.T) {
	if s := fSmall.FromInt64(42).String(); s != "42" {
		t.Errorf("small String = %q", s)
	}
	big := f256.One().Neg().String()
	if len(big) == 0 {
		t.Error("large String empty")
	}
}

func TestBitLen(t *testing.T) {
	if got := fSmall.BitLen(); got != 7 {
		t.Errorf("BitLen of GF(101) = %d, want 7", got)
	}
	if got := f256.BitLen(); got != 256 {
		t.Errorf("BitLen of the P-256 scalar field = %d, want 256", got)
	}
	for _, f := range []*Field{fSmall, f256} {
		if f.ByteLen() != (f.BitLen()+7)/8 {
			t.Errorf("ByteLen %d does not fit BitLen %d", f.ByteLen(), f.BitLen())
		}
	}
}

func TestFromBigReduction(t *testing.T) {
	cases := []struct {
		in   *big.Int
		want int64
	}{
		{big.NewInt(0), 0},
		{big.NewInt(100), 100},
		{big.NewInt(101), 0},
		{big.NewInt(-1), 100},
		{new(big.Int).Add(new(big.Int).Lsh(big.NewInt(101), 300), big.NewInt(7)), 7},
	}
	for _, c := range cases {
		got, ok := fSmall.FromBig(c.in).Int64()
		if !ok || got != c.want {
			t.Errorf("FromBig(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestFromBigDoesNotRetain: the element keeps its own copy, so changing
// the argument afterwards leaves the element as it was.
func TestFromBigDoesNotRetain(t *testing.T) {
	v := big.NewInt(42)
	e := fSmall.FromBig(v)
	v.SetInt64(7)
	if got, _ := e.Int64(); got != 42 {
		t.Errorf("element changed with its argument: %d, want 42", got)
	}
}

func TestPutBytesMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range []*Field{fSmall, f256} {
		for i := 0; i < 32; i++ {
			e := randElem(f, rng)
			dst := bytes.Repeat([]byte{0xaa}, f.ByteLen())
			e.PutBytes(dst)
			if !bytes.Equal(dst, e.Bytes()) {
				t.Fatalf("PutBytes %x != Bytes %x", dst, e.Bytes())
			}
		}
	}
}

func TestPutBytesWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a short PutBytes destination")
		}
	}()
	f256.One().PutBytes(make([]byte, f256.ByteLen()-1))
}

func TestBitMatchesRepresentative(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 16; i++ {
		e := randElem(f256, rng)
		n := e.BigInt()
		for b := 0; b < 260; b++ {
			if e.Bit(b) != n.Bit(b) {
				t.Fatalf("Bit(%d) of %v = %d, want %d", b, e, e.Bit(b), n.Bit(b))
			}
		}
	}
	// 101 = 0b1100101: the representative of -1 in GF(101) is 100 = 0b1100100.
	m1 := fSmall.One().Neg()
	for b, want := range []uint{0, 0, 1, 0, 0, 1, 1, 0} {
		if m1.Bit(b) != want {
			t.Errorf("Bit(%d) of -1 = %d, want %d", b, m1.Bit(b), want)
		}
	}
}

func TestElementField(t *testing.T) {
	if !fSmall.FromInt64(3).Field().Equal(fSmall) {
		t.Error("element does not report its own field")
	}
	if f256.One().Field() != f256 {
		t.Error("One's field is not the field that made it")
	}
	if got := f256.FromInt64(3).Mul(f256.FromInt64(5)).Field(); got != f256 {
		t.Error("a product's field is not its factors' field")
	}
}

// failingReader stands in for a broken randomness source.
type failingReader struct{}

var errNoEntropy = errors.New("no entropy")

func (failingReader) Read([]byte) (int, error) { return 0, errNoEntropy }

func TestRandReaderFailure(t *testing.T) {
	if _, err := f256.Rand(failingReader{}); !errors.Is(err, errNoEntropy) {
		t.Fatalf("Rand over a failing reader: %v, want %v", err, errNoEntropy)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRand did not panic over a failing reader")
		}
	}()
	f256.MustRand(failingReader{})
}

func TestMustRandIsReduced(t *testing.T) {
	for i := 0; i < 16; i++ {
		if e := fSmall.MustRand(nil); e.BigInt().Cmp(smallQ) >= 0 || e.BigInt().Sign() < 0 {
			t.Fatalf("MustRand output %v out of range", e)
		}
	}
}

func BenchmarkMul256(b *testing.B) {
	x := f256.MustRand(nil)
	y := f256.MustRand(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

func BenchmarkInv256(b *testing.B) {
	x := f256.MustRand(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Inv()
	}
}
