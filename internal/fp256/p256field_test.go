package fp256

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// The kernel in p256field.go is checked two ways on every input: limb for
// limb against the generic CIOS loop run on the same modulus (both compute
// the one value (x·y + M·p)/2²⁵⁶ and subtract p at most once), and modulo p
// against math/big.

var (
	two64  = new(big.Int).Lsh(big.NewInt(1), 64)
	two192 = new(big.Int).Lsh(big.NewInt(1), 192)
	two256 = new(big.Int).Lsh(big.NewInt(1), 256)
	rInvP  = new(big.Int).ModInverse(two256, P().Big())
)

func bigFromLimbs(e *Element) *big.Int {
	var b [32]byte
	e.PutBytes(b[:])
	return new(big.Int).SetBytes(b[:])
}

// checkMulSqr runs Mul and Sqr on raw limbs (any value < 2²⁵⁶, reduced or
// not) in every aliasing arrangement and compares with both oracles.
func checkMulSqr(t testing.TB, x, y Element) {
	t.Helper()
	md := P()
	var want, got Element
	md.mulCIOS(&want, &x, &y)
	md.Mul(&got, &x, &y)
	if got != want {
		t.Fatalf("Mul(%x, %x) = %x, CIOS says %x", x, y, got, want)
	}
	ref := new(big.Int).Mul(bigFromLimbs(&x), bigFromLimbs(&y))
	ref.Mul(ref, rInvP).Mod(ref, md.bigM)
	if g := new(big.Int).Mod(bigFromLimbs(&got), md.bigM); g.Cmp(ref) != 0 {
		t.Fatalf("Mul(%x, %x) = %x, math/big says %x", x, y, got, ref)
	}
	zx := x
	md.Mul(&zx, &zx, &y) // z == x
	zy := y
	md.Mul(&zy, &x, &zy) // z == y
	if zx != want || zy != want {
		t.Fatalf("Mul(%x, %x): aliasing z changed the result", x, y)
	}

	md.mulCIOS(&want, &x, &x)
	md.Sqr(&got, &x)
	if got != want {
		t.Fatalf("Sqr(%x) = %x, CIOS says %x", x, got, want)
	}
	ref.Mul(bigFromLimbs(&x), bigFromLimbs(&x))
	ref.Mul(ref, rInvP).Mod(ref, md.bigM)
	if g := new(big.Int).Mod(bigFromLimbs(&got), md.bigM); g.Cmp(ref) != 0 {
		t.Fatalf("Sqr(%x) = %x, math/big says %x", x, got, ref)
	}
	md.Mul(&got, &x, &x) // x == y
	zx = x
	md.Sqr(&zx, &zx) // z == x
	zy = x
	md.Mul(&zy, &zy, &zy) // z == x == y
	if got != want || zx != want || zy != want {
		t.Fatalf("Sqr(%x): aliasing changed the result", x)
	}
}

// stepCarries reports whether one reduction step on the four-limb s carries
// out of limb 3 of its add chain (the carry p256Step folds into hi).
func stepCarries(s *big.Int) bool {
	s0 := new(big.Int).Mod(s, two64)
	add := new(big.Int).Lsh(s0, 32) // s0·2⁹⁶ / 2⁶⁴
	lo := new(big.Int).Mul(s0, new(big.Int).SetUint64(p256Top))
	lo.Mod(lo, two64)
	add.Add(add, lo.Lsh(lo, 128))
	add.Add(add, new(big.Int).Rsh(s, 64))
	return add.Cmp(two192) >= 0
}

func bigStep(s *big.Int) *big.Int {
	s0 := new(big.Int).Mod(s, two64)
	s0.Mul(s0, P().bigM).Add(s0, s)
	return s0.Rsh(s0, 64)
}

// kernelEvents replays Mul's and Sqr's reduction schedules in math/big and
// records which rare paths the operands reach: a carry out of limb 3 in
// reduction step i (mul[i], sqr[i]), a pre-subtraction value ≥ p (sub), and
// one ≥ 2²⁵⁶ (top).
type kernelEvents struct {
	mul, sqr [4]int
	sub, top int
}

func (ev *kernelEvents) record(x, y *Element) {
	p := P().bigM
	by := bigFromLimbs(y)
	t := new(big.Int)
	for i := 0; i < 4; i++ {
		t.Add(t, new(big.Int).Mul(new(big.Int).SetUint64(x[i]), by))
		low := new(big.Int).Mod(t, two256)
		if stepCarries(low) {
			ev.mul[i]++
		}
		t = bigStep(t)
	}
	if t.Cmp(p) >= 0 {
		ev.sub++
	}
	if t.Cmp(two256) >= 0 {
		ev.top++
	}
	bx := bigFromLimbs(x)
	sq := new(big.Int).Mul(bx, bx)
	low := new(big.Int).Mod(sq, two256)
	for i := 0; i < 4; i++ {
		if stepCarries(low) {
			ev.sqr[i]++
		}
		low = bigStep(low)
	}
}

func (ev *kernelEvents) require(t *testing.T) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if ev.mul[i] == 0 || ev.sqr[i] == 0 {
			t.Fatalf("corpus never carries out of limb 3 in reduction step %d (mul %v, sqr %v)", i, ev.mul, ev.sqr)
		}
	}
	if ev.sub == 0 || ev.top == 0 {
		t.Fatalf("corpus never forces the final subtraction (%d) or the 257th bit (%d)", ev.sub, ev.top)
	}
}

// boundaryElements are the operands where a limb-level slip would show:
// the ends of the field, the Montgomery constants, p itself and its
// unreduced neighbours, and limb patterns that saturate or empty each
// position of the carry chains.
func boundaryElements() []Element {
	md := P()
	p := md.bigM
	sub := func(k int64) Element { return limbsFromBig(new(big.Int).Sub(p, big.NewInt(k))) }
	ones := ^uint64(0)
	out := []Element{
		{}, {1}, {2}, sub(1), sub(2), sub(3), md.one, md.rr, md.m,
		limbsFromBig(new(big.Int).Add(p, big.NewInt(1))),
		{ones, ones, ones, ones},
		{ones - 1, ones, ones, ones},
		{0, 0, 0, 1 << 63},
		{1, 0, 0, ones},
		{ones, 0, 0, 0}, {0, ones, 0, 0}, {0, 0, ones, 0}, {0, 0, 0, ones},
		{1 << 32, 0, 0, 0}, {1<<32 - 1, 0, 0, 0}, {ones << 32, 0, 0, 0},
		{ones, ones, 0, 0}, {0, 0, ones, ones}, {ones, 0, ones, 0}, {0, ones, 0, ones},
		{p256Top, p256Top, p256Top, p256Top},
		{1, 1, 1, 1},
		{1 << 63, 1 << 63, 1 << 63, 1 << 63},
	}
	// −2^k and 2^k mod p around the bit positions p is built from.
	for _, k := range []uint{31, 32, 33, 63, 64, 95, 96, 97, 127, 128, 191, 192, 193, 223, 224, 225, 255} {
		pow := new(big.Int).Lsh(big.NewInt(1), k)
		out = append(out, limbsFromBig(pow), limbsFromBig(new(big.Int).Sub(p, pow)))
	}
	return out
}

func TestP256MulSqrBoundaries(t *testing.T) {
	els := boundaryElements()
	var ev kernelEvents
	for i := range els {
		for j := range els {
			checkMulSqr(t, els[i], els[j])
			ev.record(&els[i], &els[j])
		}
	}
	ev.require(t)
}

// TestP256StepBoundaries checks the reduction step alone on every
// combination of saturating limb values, where all three of its carries
// fire together.
func TestP256StepBoundaries(t *testing.T) {
	limbs := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	carried := 0
	for _, a := range limbs {
		for _, b := range limbs {
			for _, c := range limbs {
				for _, d := range limbs {
					s := Element{a, b, c, d}
					var got Element
					got[0], got[1], got[2], got[3] = p256Step(a, b, c, d)
					bs := bigFromLimbs(&s)
					if want := limbsFromBig(bigStep(bs)); got != want {
						t.Fatalf("p256Step(%x) = %x, want %x", s, got, want)
					}
					if stepCarries(bs) {
						carried++
					}
				}
			}
		}
	}
	if carried == 0 {
		t.Fatal("no input carried out of limb 3")
	}
}

func TestP256MulSqrRandom(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	rng := rand.New(rand.NewSource(256))
	var buf [64]byte
	for i := 0; i < n; i++ {
		rng.Read(buf[:])
		var x, y Element
		for k := 0; k < 4; k++ {
			x[k] = binary.LittleEndian.Uint64(buf[8*k:])
			y[k] = binary.LittleEndian.Uint64(buf[32+8*k:])
		}
		// Most pairs reduced, as the curve code supplies them; the rest
		// raw, which the kernel also promises to handle.
		if i%8 != 0 {
			x, y = limbsFromBig(new(big.Int).Mod(bigFromLimbs(&x), P().bigM)), limbsFromBig(new(big.Int).Mod(bigFromLimbs(&y), P().bigM))
		}
		checkMulSqr(t, x, y)
	}
}

// TestP256KernelReducedOutput: reduced operands must give reduced results
// (the curve code compares field elements limb-wise).
func TestP256KernelReducedOutput(t *testing.T) {
	md := P()
	rng := rand.New(rand.NewSource(257))
	els := boundaryElements()
	for i := 0; i < 2000; i++ {
		els = append(els, limbsFromBig(randBig(md.bigM, rng)))
	}
	for i := range els {
		x := &els[i]
		if bigFromLimbs(x).Cmp(md.bigM) >= 0 {
			continue
		}
		y := &els[(i*7+3)%len(els)]
		if bigFromLimbs(y).Cmp(md.bigM) >= 0 {
			continue
		}
		var z Element
		md.Mul(&z, x, y)
		if bigFromLimbs(&z).Cmp(md.bigM) >= 0 {
			t.Fatalf("Mul(%x, %x) = %x is not reduced", *x, *y, z)
		}
		md.Sqr(&z, x)
		if bigFromLimbs(&z).Cmp(md.bigM) >= 0 {
			t.Fatalf("Sqr(%x) = %x is not reduced", *x, z)
		}
	}
}

func TestP256KernelDoesNotAllocate(t *testing.T) {
	md := P()
	x, y := md.one, md.rr
	if a := testing.AllocsPerRun(100, func() {
		md.Mul(&x, &x, &y)
		md.Sqr(&y, &y)
	}); a != 0 {
		t.Fatalf("Mul+Sqr allocate %v times per call", a)
	}
}

func FuzzP256MulSqr(f *testing.F) {
	var b [64]byte
	for _, e := range boundaryElements() {
		for k := 0; k < 4; k++ {
			binary.LittleEndian.PutUint64(b[8*k:], e[k])
			binary.LittleEndian.PutUint64(b[32+8*k:], e[3-k])
		}
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 64 {
			return
		}
		var x, y Element
		for k := 0; k < 4; k++ {
			x[k] = binary.LittleEndian.Uint64(in[8*k:])
			y[k] = binary.LittleEndian.Uint64(in[32+8*k:])
		}
		checkMulSqr(t, x, y)
	})
}
