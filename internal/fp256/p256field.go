package fp256

import "math/bits"

// Multiplication and squaring for the coordinate prime
//
//	p = 2²⁵⁶ − 2²²⁴ + 2¹⁹² + 2⁹⁶ − 1
//	  = [ffffffffffffffff, 00000000ffffffff, 0, ffffffff00000001]  (limbs, low first)
//
// using the shape of p instead of the generic CIOS loop. p ≡ −1 (mod 2⁶⁴),
// so −p⁻¹ mod 2⁶⁴ = 1 and the Montgomery factor of a reduction step is the
// low limb t0 itself; and t0·p = t0·2²⁵⁶ − t0·2²²⁴ + t0·2¹⁹² + t0·2⁹⁶ − t0,
// whose −t0 cancels the low limb. One step (t + t0·p)/2⁶⁴ is therefore
//
//	(t1, t2, t3, t4) + (t0≪32, t0≫32, lo, hi),   hi:lo = t0·(2⁶⁴ − 2³² + 1)
//
// — two shifts, one word multiply by the top limb of p and an add chain, in
// place of the four word multiplies by the limbs of p that CIOS spends (the
// structure of Go's amd64 P-256 assembly, in portable Go). A product costs
// 16 + 4 word multiplies instead of 36, a square 10 + 4.
//
// The shapes below are chosen for the Go compiler as much as for the
// arithmetic: its scheduler hoists every bits.Mul64 whose operands are
// ready above the carry chains that consume them, so a fully unrolled 4×4
// product spills most of its 32 half-products to the stack. p256Mul keeps
// the row loop (one iteration's 5 multiplies fit in registers) and
// interleaves a reduction step per row.

// p256Top is the top limb of p, 2⁶⁴ − 2³² + 1.
const p256Top = 0xffffffff00000001

// p256Step returns (t + t0·p)/2⁶⁴ for the four-limb t: one Montgomery
// reduction step. The result fits four limbs for every t < 2²⁵⁶ (it is
// < 2¹⁹² + p), so the carry out of the add chain is absorbed by hi.
func p256Step(t0, t1, t2, t3 uint64) (uint64, uint64, uint64, uint64) {
	hi, lo := bits.Mul64(t0, p256Top)
	var c uint64
	t1, c = bits.Add64(t1, t0<<32, 0)
	t2, c = bits.Add64(t2, t0>>32, c)
	t3, c = bits.Add64(t3, lo, c)
	return t1, t2, t3, hi + c
}

// p256Finish returns t − p if t ≥ p, else t, for the 257-bit
// t = hi·2²⁵⁶ + (t3, t2, t1, t0) < 2p. Small enough to inline, and the
// compiler turns the choice into conditional moves, not a branch.
func p256Finish(t0, t1, t2, t3, hi uint64) (uint64, uint64, uint64, uint64) {
	r0, b := bits.Sub64(t0, 0xffffffffffffffff, 0)
	r1, b := bits.Sub64(t1, 0x00000000ffffffff, b)
	r2, b := bits.Sub64(t2, 0, b)
	r3, b := bits.Sub64(t3, p256Top, b)
	if b <= hi { // no borrow out of the 257-bit subtraction
		t0, t1, t2, t3 = r0, r1, r2, r3
	}
	return t0, t1, t2, t3
}

// p256Mul sets z = x·y·2⁻²⁵⁶ mod p for x, y < 2²⁵⁶ (reduced operands give a
// reduced result). z may alias x or y. Row i adds xᵢ·y into the running
// five-limb t < 2²⁵⁷ and one reduction step divides it by 2⁶⁴ again.
func p256Mul(z, x, y *Element) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, t4 uint64
	for i := 0; i < 4; i++ {
		xi := x[i]
		h0, l0 := bits.Mul64(xi, y0)
		h1, l1 := bits.Mul64(xi, y1)
		h2, l2 := bits.Mul64(xi, y2)
		h3, l3 := bits.Mul64(xi, y3)
		// xᵢ·y as five limbs (l0, l1, l2, l3, h3): one carry chain, and
		// the top limb cannot overflow (xᵢ·y < 2³²⁰).
		var c uint64
		l1, c = bits.Add64(l1, h0, 0)
		l2, c = bits.Add64(l2, h1, c)
		l3, c = bits.Add64(l3, h2, c)
		h3 += c
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, h3, c)
		t5 := c
		t0, t1, t2, t3 = p256Step(t0, t1, t2, t3)
		t3, c = bits.Add64(t3, t4, 0)
		t4 = t5 + c
	}
	z[0], z[1], z[2], z[3] = p256Finish(t0, t1, t2, t3, t4)
}

// p256Sqr sets z = x²·2⁻²⁵⁶ mod p: the six cross products once, doubled by
// a one-bit shift, plus the four squares — 10 word multiplies where
// p256Mul(z, x, x) does 16 — then the four reduction steps on the low half
// ((low + M·p)/2²⁵⁶ ≤ p), the high half added, and one conditional
// subtraction. z may alias x.
func p256Sqr(z, x *Element) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var c uint64

	// Cross products Σ_{i<j} xᵢ·xⱼ·2^{64(i+j)} into t1..t6; the sum is
	// < 2⁴⁴⁸, so t6 takes the last carries without overflowing.
	t2, t1 := bits.Mul64(x0, x1)
	h, l := bits.Mul64(x0, x2)
	t2, c = bits.Add64(t2, l, 0)
	t4, t3 := bits.Mul64(x0, x3)
	t3, c = bits.Add64(t3, h, c)
	t4 += c
	h, l = bits.Mul64(x1, x2)
	t3, c = bits.Add64(t3, l, 0)
	t4, c = bits.Add64(t4, h, c)
	t5 := c
	h, l = bits.Mul64(x1, x3)
	t4, c = bits.Add64(t4, l, 0)
	t5, c = bits.Add64(t5, h, c)
	t6 := c
	h, l = bits.Mul64(x2, x3)
	t5, c = bits.Add64(t5, l, 0)
	t6 += h + c

	// Double.
	t7 := t6 >> 63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1

	// Add the squares xᵢ²·2^{128i}; the total is x² < 2⁵¹².
	h, t0 := bits.Mul64(x0, x0)
	t1, c = bits.Add64(t1, h, 0)
	h, l = bits.Mul64(x1, x1)
	t2, c = bits.Add64(t2, l, c)
	t3, c = bits.Add64(t3, h, c)
	h, l = bits.Mul64(x2, x2)
	t4, c = bits.Add64(t4, l, c)
	t5, c = bits.Add64(t5, h, c)
	h, l = bits.Mul64(x3, x3)
	t6, c = bits.Add64(t6, l, c)
	t7 += h + c

	t0, t1, t2, t3 = p256Step(t0, t1, t2, t3)
	t0, t1, t2, t3 = p256Step(t0, t1, t2, t3)
	t0, t1, t2, t3 = p256Step(t0, t1, t2, t3)
	t0, t1, t2, t3 = p256Step(t0, t1, t2, t3)
	t0, c = bits.Add64(t0, t4, 0)
	t1, c = bits.Add64(t1, t5, c)
	t2, c = bits.Add64(t2, t6, c)
	t3, c = bits.Add64(t3, t7, c)
	z[0], z[1], z[2], z[3] = p256Finish(t0, t1, t2, t3, c)
}
