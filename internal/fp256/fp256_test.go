package fp256

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
)

func moduli() []*Modulus { return []*Modulus{P(), N()} }

// randBig returns a pseudorandom value in [0, m), biased toward the edges
// of the range on a fraction of draws so carries and the final conditional
// subtraction get exercised.
func randBig(m *big.Int, rng *rand.Rand) *big.Int {
	switch rng.Intn(8) {
	case 0:
		return big.NewInt(int64(rng.Intn(3))) // 0, 1, 2
	case 1:
		return new(big.Int).Sub(m, big.NewInt(int64(1+rng.Intn(3)))) // m-1..m-3
	default:
		b := make([]byte, 32)
		rng.Read(b)
		return new(big.Int).Mod(new(big.Int).SetBytes(b), m)
	}
}

func TestConstantsMatchStdlib(t *testing.T) {
	p256 := elliptic.P256().Params()
	if P().Big().Cmp(p256.P) != 0 {
		t.Fatal("coordinate modulus differs from crypto/elliptic P-256")
	}
	if N().Big().Cmp(p256.N) != 0 {
		t.Fatal("scalar modulus differs from crypto/elliptic P-256")
	}
}

func TestMontgomeryConstants(t *testing.T) {
	for _, md := range moduli() {
		m := md.Big()
		// n0·m ≡ -1 mod 2⁶⁴
		prod := md.n0 * md.m[0]
		if prod != ^uint64(0) {
			t.Fatalf("%s: n0 is not -m^-1 mod 2^64", md.Name())
		}
		r := new(big.Int).Lsh(big.NewInt(1), 256)
		if limbsFromBig(new(big.Int).Mod(r, m)) != md.one {
			t.Fatalf("%s: one != R mod m", md.Name())
		}
		if limbsFromBig(new(big.Int).Mod(new(big.Int).Mul(r, r), m)) != md.rr {
			t.Fatalf("%s: rr != R^2 mod m", md.Name())
		}
	}
}

// TestArithmeticDifferential cross-checks every operation against math/big
// on a randomized corpus per modulus.
func TestArithmeticDifferential(t *testing.T) {
	for _, md := range moduli() {
		md := md
		t.Run(md.Name(), func(t *testing.T) {
			m := md.Big()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 2000; i++ {
				a, b := randBig(m, rng), randBig(m, rng)
				ea, eb := md.FromBig(a), md.FromBig(b)

				var got Element
				md.Add(&got, &ea, &eb)
				want := new(big.Int).Mod(new(big.Int).Add(a, b), m)
				if md.ToBig(&got).Cmp(want) != 0 {
					t.Fatalf("Add(%v, %v) mismatch", a, b)
				}

				md.Sub(&got, &ea, &eb)
				want = new(big.Int).Mod(new(big.Int).Sub(a, b), m)
				if md.ToBig(&got).Cmp(want) != 0 {
					t.Fatalf("Sub(%v, %v) mismatch", a, b)
				}

				md.Mul(&got, &ea, &eb)
				want = new(big.Int).Mod(new(big.Int).Mul(a, b), m)
				if md.ToBig(&got).Cmp(want) != 0 {
					t.Fatalf("Mul(%v, %v) mismatch", a, b)
				}

				md.Sqr(&got, &ea)
				want = new(big.Int).Mod(new(big.Int).Mul(a, a), m)
				if md.ToBig(&got).Cmp(want) != 0 {
					t.Fatalf("Sqr(%v) mismatch", a)
				}

				md.Neg(&got, &ea)
				want = new(big.Int).Mod(new(big.Int).Neg(a), m)
				if md.ToBig(&got).Cmp(want) != 0 {
					t.Fatalf("Neg(%v) mismatch", a)
				}

				if a.Sign() != 0 {
					md.Inv(&got, &ea)
					want = new(big.Int).ModInverse(a, m)
					if md.ToBig(&got).Cmp(want) != 0 {
						t.Fatalf("Inv(%v) mismatch: got %v want %v", a, md.ToBig(&got), want)
					}
				}
			}
		})
	}
}

// TestMulAliasing: z aliasing x, y, or both must not change results.
func TestMulAliasing(t *testing.T) {
	for _, md := range moduli() {
		m := md.Big()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 50; i++ {
			a, b := randBig(m, rng), randBig(m, rng)
			ea, eb := md.FromBig(a), md.FromBig(b)
			var ref Element
			md.Mul(&ref, &ea, &eb)

			x := ea
			md.Mul(&x, &x, &eb) // z aliases x
			if !x.Equal(&ref) {
				t.Fatal("z aliasing x changed Mul result")
			}
			y := eb
			md.Mul(&y, &ea, &y) // z aliases y
			if !y.Equal(&ref) {
				t.Fatal("z aliasing y changed Mul result")
			}
			s := ea
			md.Mul(&s, &s, &s) // full aliasing: square
			var refSq Element
			md.Sqr(&refSq, &ea)
			if !s.Equal(&refSq) {
				t.Fatal("full aliasing changed Sqr result")
			}
			md.Add(&x, &ea, &eb)
			z := ea
			md.Add(&z, &z, &eb)
			if !z.Equal(&x) {
				t.Fatal("aliasing changed Add result")
			}
		}
	}
}

func TestSqrtDifferential(t *testing.T) {
	md := P()
	m := md.Big()
	exp := new(big.Int).Rsh(new(big.Int).Add(m, big.NewInt(1)), 2)
	rng := rand.New(rand.NewSource(3))
	squares, nonSquares := 0, 0
	for i := 0; i < 400; i++ {
		a := randBig(m, rng)
		ea := md.FromBig(a)
		var root Element
		ok := md.Sqrt(&root, &ea)
		// Reference: candidate root a^((p+1)/4); a is a QR iff it squares back.
		cand := new(big.Int).Exp(a, exp, m)
		isQR := new(big.Int).Mod(new(big.Int).Mul(cand, cand), m).Cmp(a) == 0
		if ok != isQR {
			t.Fatalf("Sqrt(%v): ok=%v, want %v", a, ok, isQR)
		}
		if ok {
			squares++
			if md.ToBig(&root).Cmp(cand) != 0 {
				t.Fatalf("Sqrt(%v): wrong root", a)
			}
		} else {
			nonSquares++
		}
	}
	if squares == 0 || nonSquares == 0 {
		t.Fatalf("degenerate corpus: %d squares, %d non-squares", squares, nonSquares)
	}
}

func TestPowMatchesBig(t *testing.T) {
	for _, md := range moduli() {
		m := md.Big()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 60; i++ {
			a := randBig(m, rng)
			e := randBig(m, rng)
			ea := md.FromBig(a)
			el := limbsFromBig(e)
			var got Element
			md.Pow(&got, &ea, &el)
			want := new(big.Int).Exp(a, e, m)
			if md.ToBig(&got).Cmp(want) != 0 {
				t.Fatalf("%s: Pow mismatch", md.Name())
			}
		}
		// Exponent 0 → 1.
		ea := md.FromBig(big.NewInt(7))
		zero := Element{}
		var got Element
		md.Pow(&got, &ea, &zero)
		if md.ToBig(&got).Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%s: x^0 != 1", md.Name())
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, md := range moduli() {
		m := md.Big()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 200; i++ {
			a := randBig(m, rng)
			var b [32]byte
			a.FillBytes(b[:])
			var e Element
			if err := md.FromBytes(&e, b[:]); err != nil {
				t.Fatalf("FromBytes canonical value rejected: %v", err)
			}
			var out [32]byte
			md.Bytes(&e, out[:])
			if out != b {
				t.Fatal("Bytes round trip mismatch")
			}
		}
		// Values >= m are rejected.
		var b [32]byte
		m.FillBytes(b[:])
		var e Element
		if err := md.FromBytes(&e, b[:]); err != ErrNonCanonical {
			t.Fatalf("FromBytes(m) err = %v, want ErrNonCanonical", err)
		}
		for i := range b {
			b[i] = 0xff
		}
		if err := md.FromBytes(&e, b[:]); err != ErrNonCanonical {
			t.Fatalf("FromBytes(2^256-1) err = %v, want ErrNonCanonical", err)
		}
		if err := md.FromBytes(&e, b[:31]); err == nil {
			t.Fatal("FromBytes accepted short encoding")
		}
	}
}

func TestPlainIntegerHelpers(t *testing.T) {
	v := new(big.Int).SetBytes([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	var b [32]byte
	v.FillBytes(b[:])
	e := LimbsFromBytes(b[:])
	if e.BitLen() != v.BitLen() {
		t.Fatalf("BitLen = %d, want %d", e.BitLen(), v.BitLen())
	}
	for i := 0; i < 80; i++ {
		if uint(e.Bit(i)) != v.Bit(i) {
			t.Fatalf("Bit(%d) mismatch", i)
		}
	}
	var out [32]byte
	e.PutBytes(out[:])
	if out != b {
		t.Fatal("PutBytes round trip mismatch")
	}
	zero := Element{}
	if !zero.IsZero() || zero.BitLen() != 0 {
		t.Fatal("zero helpers broken")
	}
}

func TestSqrtPanicsOnScalarModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var z, x Element
	N().Sqrt(&z, &x)
}

// TestDoubleMatchesBig cross-checks Double against 2x mod m, aliased and
// not.
func TestDoubleMatchesBig(t *testing.T) {
	for _, md := range moduli() {
		md := md
		t.Run(md.Name(), func(t *testing.T) {
			m := md.Big()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				a := randBig(m, rng)
				x := md.FromBig(a)
				want := new(big.Int).Mod(new(big.Int).Lsh(a, 1), m)
				var z Element
				md.Double(&z, &x)
				if md.ToBig(&z).Cmp(want) != 0 {
					t.Fatalf("Double(%v) mismatch", a)
				}
				md.Double(&x, &x)
				if !x.Equal(&z) {
					t.Fatalf("aliased Double(%v) differs", a)
				}
			}
		})
	}
}

// TestOneIsIdentity: One is the Montgomery form of 1 — it decodes to 1,
// encodes as 1, and leaves every factor unchanged.
func TestOneIsIdentity(t *testing.T) {
	for _, md := range moduli() {
		md := md
		t.Run(md.Name(), func(t *testing.T) {
			one := md.One()
			if md.ToBig(&one).Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("One decodes to %v", md.ToBig(&one))
			}
			if want := md.FromBig(big.NewInt(1)); !one.Equal(&want) {
				t.Fatal("One differs from FromBig(1)")
			}
			var b [32]byte
			md.Bytes(&one, b[:])
			if b[31] != 1 || new(big.Int).SetBytes(b[:]).Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("One encodes as %x", b)
			}
			rng := rand.New(rand.NewSource(8))
			for i := 0; i < 100; i++ {
				x := md.FromBig(randBig(md.Big(), rng))
				var z Element
				md.Mul(&z, &x, &one)
				if !z.Equal(&x) {
					t.Fatal("x·One != x")
				}
			}
		})
	}
}

// TestIsOddPlainMatchesBig: the parity is the plain value's, not the
// Montgomery limbs'.
func TestIsOddPlainMatchesBig(t *testing.T) {
	for _, md := range moduli() {
		md := md
		t.Run(md.Name(), func(t *testing.T) {
			m := md.Big()
			rng := rand.New(rand.NewSource(9))
			vals := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(m, big.NewInt(1))}
			for i := 0; i < 500; i++ {
				vals = append(vals, randBig(m, rng))
			}
			for _, v := range vals {
				x := md.FromBig(v)
				if got, want := md.IsOddPlain(&x), v.Bit(0) == 1; got != want {
					t.Fatalf("IsOddPlain(%v) = %v, want %v", v, got, want)
				}
			}
		})
	}
}

// TestSqrtCallsCounts: every Sqrt call adds one to the counter, whether or
// not a root exists.
func TestSqrtCallsCounts(t *testing.T) {
	md := P()
	before := SqrtCalls()
	four := md.FromBig(big.NewInt(4))
	var z Element
	if !md.Sqrt(&z, &four) {
		t.Fatal("4 has no square root")
	}
	// -1 is a non-residue mod p because p ≡ 3 mod 4.
	minusOne := md.FromBig(big.NewInt(-1))
	if md.Sqrt(&z, &minusOne) {
		t.Fatal("-1 has a square root mod p")
	}
	if got := SqrtCalls() - before; got != 2 {
		t.Fatalf("SqrtCalls advanced by %d over two calls", got)
	}
}

func BenchmarkMul(b *testing.B) {
	md := P()
	x := md.FromBig(big.NewInt(0).SetBytes([]byte("a benchmark operand a benchmark")))
	y := md.FromBig(big.NewInt(0).SetBytes([]byte("another operand another operand!")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		md.Mul(&x, &x, &y)
	}
}

// BenchmarkInv, like every benchmark here, feeds each result into the next
// operand: on a fixed input the ~270 data-dependent choices of one chain
// repeat exactly and a branch predictor learns them, which no real caller's
// data allows.
func BenchmarkInv(b *testing.B) {
	md := P()
	x := md.FromBig(big.NewInt(0).SetBytes([]byte("a benchmark operand a benchmark")))
	one := md.One()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		md.Inv(&x, &x)
		md.Add(&x, &x, &one)
	}
}

func BenchmarkSqr(b *testing.B) {
	md := P()
	x := md.FromBig(big.NewInt(0).SetBytes([]byte("a benchmark operand a benchmark")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		md.Sqr(&x, &x)
	}
}

func BenchmarkSqrt(b *testing.B) {
	md := P()
	x := md.FromBig(big.NewInt(0).SetBytes([]byte("a benchmark operand a benchmark")))
	one := md.One()
	var sq Element
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		md.Sqr(&sq, &x) // a square, so the root exists
		if !md.Sqrt(&x, &sq) {
			b.Fatal("no root")
		}
		md.Add(&x, &x, &one)
	}
}

// BenchmarkAddSub chains x ← x − y, y ← y + x so the operands (and with
// them the wrap-around of each operation) change every iteration the way
// they do inside the point formulas.
func BenchmarkAddSub(b *testing.B) {
	md := P()
	x := md.FromBig(big.NewInt(0).SetBytes([]byte("a benchmark operand a benchmark")))
	y := md.FromBig(big.NewInt(0).SetBytes([]byte("another operand another operand!")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		md.Sub(&x, &x, &y)
		md.Add(&y, &y, &x)
	}
}
