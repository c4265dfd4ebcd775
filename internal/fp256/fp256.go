// Package fp256 implements fixed-width arithmetic modulo the coordinate
// prime p of NIST P-256. The generic Montgomery code works for any 256-bit
// odd prime; the tests run it modulo the group order n as well.
//
// This is the fast arithmetic substrate behind the default commitment group
// (see internal/ec fast path and group.P256). Elements are 4×uint64 limb
// arrays in Montgomery form (aR mod m, R = 2²⁵⁶); every operation works
// in place on caller-owned arrays, so the elliptic-curve hot paths —
// Pedersen commits, Σ-OR verification multi-exponentiations — allocate
// nothing per operation. math/big appears only at package init (deriving
// the Montgomery constants) and in tests; never on an operational path.
//
// The generic math/big stack (internal/field, the reference ec backend, the
// Schnorr2048 group) is unaffected: fp256 is an accelerator for the P-256
// deployment with bit-identical results, enforced by differential tests
// against math/big and crypto/elliptic.
//
// None of this code attempts constant-time execution: the math/big
// reference backend it replaces is variable-time too, and the threat model
// of the reproduction (malicious provers/clients caught by verification,
// not side channels) does not include timing adversaries. See ARCHITECTURE.md
// "Arithmetic backends".
package fp256

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// Element is a 256-bit value as four little-endian 64-bit limbs. When used
// as a field element it holds the Montgomery representation; when used as a
// plain integer (scalar digits for wNAF/Pippenger) it holds the value
// itself. The zero value is the integer 0 (which is also Montgomery 0).
type Element [4]uint64

// Modulus bundles a 256-bit odd prime with its precomputed Montgomery
// constants. P() is created at init (the tests add N(), the group order);
// Modulus values are immutable and safe for concurrent use.
type Modulus struct {
	name string
	m    Element // the prime, little-endian limbs
	n0   uint64  // -m⁻¹ mod 2⁶⁴
	rr   Element // R² mod m (to enter Montgomery form)
	one  Element // R mod m (Montgomery form of 1)

	coord   bool     // the coordinate prime: Mul/Sqr take the p-shaped kernel (p256field.go), Inv its addition chain
	pm2     Element  // m-2, generic inversion exponent fallback
	hasSqrt bool     // m ≡ 3 (mod 4) and Sqrt enabled
	bigM    *big.Int // test/interop convenience, never on hot paths
}

var pMod = newModulus("p256-p", "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", true)

func init() {
	// The coordinate field is under every curve operation, and hot on
	// Decode (square root) and Encode (normalization) besides: give it the
	// kernel shaped to its prime and the dedicated addition chain.
	pMod.coord = true
}

// P returns the coordinate field modulus p = 2²⁵⁶ − 2²²⁴ + 2¹⁹² + 2⁹⁶ − 1.
func P() *Modulus { return pMod }

func newModulus(name, hexM string, withSqrt bool) *Modulus {
	m, ok := new(big.Int).SetString(hexM, 16)
	if !ok {
		panic("fp256: bad modulus literal")
	}
	md := &Modulus{name: name, bigM: m}
	md.m = limbsFromBig(m)

	// n0 = -m⁻¹ mod 2⁶⁴ via Newton iteration on the low limb.
	inv := md.m[0] // correct mod 2³ for odd m
	for i := 0; i < 5; i++ {
		inv *= 2 - md.m[0]*inv
	}
	md.n0 = -inv

	r := new(big.Int).Lsh(big.NewInt(1), 256)
	md.one = limbsFromBig(new(big.Int).Mod(r, m))
	rr := new(big.Int).Mod(new(big.Int).Mul(r, r), m)
	md.rr = limbsFromBig(rr)
	md.pm2 = limbsFromBig(new(big.Int).Sub(m, big.NewInt(2)))
	md.hasSqrt = withSqrt
	return md
}

func limbsFromBig(v *big.Int) Element {
	var b [32]byte
	v.FillBytes(b[:])
	var e Element
	for i := 0; i < 4; i++ {
		e[i] = binary.BigEndian.Uint64(b[24-8*i : 32-8*i])
	}
	return e
}

// --- plain-integer helpers (limb arrays as values, not Montgomery) ---

// IsZero reports whether x is the zero limb array.
func (x *Element) IsZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// Equal reports limb equality.
func (x *Element) Equal(y *Element) bool {
	return x[0] == y[0] && x[1] == y[1] && x[2] == y[2] && x[3] == y[3]
}

// BitLen returns the bit length of the plain integer value.
func (x *Element) BitLen() int {
	for i := 3; i >= 0; i-- {
		if x[i] != 0 {
			return 64*i + bits.Len64(x[i])
		}
	}
	return 0
}

// Bit returns bit i of the plain integer value.
func (x *Element) Bit(i int) uint64 {
	if i < 0 || i >= 256 {
		return 0
	}
	return (x[i/64] >> (i % 64)) & 1
}

// LimbsFromBytes decodes 32 big-endian bytes into plain little-endian
// limbs without any reduction. Used to turn canonical scalar encodings
// (already in [0, n)) into wNAF/Pippenger digit sources.
func LimbsFromBytes(b []byte) Element {
	if len(b) != 32 {
		panic("fp256: LimbsFromBytes needs 32 bytes")
	}
	var e Element
	for i := 0; i < 4; i++ {
		e[i] = binary.BigEndian.Uint64(b[24-8*i : 32-8*i])
	}
	return e
}

// PutBytes writes the plain integer value as 32 big-endian bytes.
func (x *Element) PutBytes(b []byte) {
	if len(b) != 32 {
		panic("fp256: PutBytes needs 32 bytes")
	}
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[24-8*i:32-8*i], x[i])
	}
}

// --- modular arithmetic (Montgomery form) ---

// Add sets z = x + y mod m. Any of the pointers may alias.
func (md *Modulus) Add(z, x, y *Element) {
	s0, c := bits.Add64(x[0], y[0], 0)
	s1, c := bits.Add64(x[1], y[1], c)
	s2, c := bits.Add64(x[2], y[2], c)
	s3, c := bits.Add64(x[3], y[3], c)
	md.reduceOnce(z, s0, s1, s2, s3, c)
}

// reduceOnce sets z = v - m if v ≥ m, else z = v, for the 257-bit
// v = hi·2²⁵⁶ + (v3, v2, v1, v0) < 2m. Which way it goes is a coin flip on
// field data, so it is written for the compiler to select with conditional
// moves: a mispredicted branch costs as much as the subtraction.
func (md *Modulus) reduceOnce(z *Element, v0, v1, v2, v3, hi uint64) {
	r0, b := bits.Sub64(v0, md.m[0], 0)
	r1, b := bits.Sub64(v1, md.m[1], b)
	r2, b := bits.Sub64(v2, md.m[2], b)
	r3, b := bits.Sub64(v3, md.m[3], b)
	if b <= hi { // no borrow out of the 257-bit subtraction
		v0, v1, v2, v3 = r0, r1, r2, r3
	}
	*z = Element{v0, v1, v2, v3}
}

// Sub sets z = x - y mod m: the borrow out of x − y masks the modulus that
// is added back (see reduceOnce for why not a branch).
func (md *Modulus) Sub(z, x, y *Element) {
	d0, b := bits.Sub64(x[0], y[0], 0)
	d1, b := bits.Sub64(x[1], y[1], b)
	d2, b := bits.Sub64(x[2], y[2], b)
	d3, b := bits.Sub64(x[3], y[3], b)
	wrap := -b
	var c uint64
	z[0], c = bits.Add64(d0, md.m[0]&wrap, 0)
	z[1], c = bits.Add64(d1, md.m[1]&wrap, c)
	z[2], c = bits.Add64(d2, md.m[2]&wrap, c)
	z[3], _ = bits.Add64(d3, md.m[3]&wrap, c)
}

// Neg sets z = -x mod m.
func (md *Modulus) Neg(z, x *Element) {
	if x.IsZero() {
		*z = Element{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(md.m[0], x[0], 0)
	z[1], b = bits.Sub64(md.m[1], x[1], b)
	z[2], b = bits.Sub64(md.m[2], x[2], b)
	z[3], _ = bits.Sub64(md.m[3], x[3], b)
}

// Double sets z = 2x mod m.
func (md *Modulus) Double(z, x *Element) { md.Add(z, x, x) }

// Mul sets z = x·y·R⁻¹ mod m (Montgomery product); with both inputs in
// Montgomery form the result is the Montgomery form of the product.
// Aliasing among z, x, y is allowed. The coordinate prime takes the kernel
// in p256field.go; the group order takes the generic CIOS loop, which the
// tests also run on p as the differential oracle for that kernel.
func (md *Modulus) Mul(z, x, y *Element) {
	if md.coord {
		p256Mul(z, x, y)
		return
	}
	md.mulCIOS(z, x, y)
}

// mulCIOS is Mul for any odd 256-bit modulus: the CIOS method with the
// running state held in scalar locals so the compiler keeps the whole
// 6-word accumulator in registers. 16 word multiplies for the product and
// 4·(1 + 4) for the reduction.
func (md *Modulus) mulCIOS(z, x, y *Element) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	m0, m1, m2, m3 := md.m[0], md.m[1], md.m[2], md.m[3]
	n0 := md.n0
	var t0, t1, t2, t3, t4, t5 uint64
	for i := 0; i < 4; i++ {
		xi := x[i]
		var C, c, hi, lo uint64
		// t += xi * y
		hi, lo = bits.Mul64(xi, y0)
		t0, c = bits.Add64(t0, lo, 0)
		C = hi + c
		hi, lo = bits.Mul64(xi, y1)
		lo, c = bits.Add64(lo, C, 0)
		hi += c
		t1, c = bits.Add64(t1, lo, 0)
		C = hi + c
		hi, lo = bits.Mul64(xi, y2)
		lo, c = bits.Add64(lo, C, 0)
		hi += c
		t2, c = bits.Add64(t2, lo, 0)
		C = hi + c
		hi, lo = bits.Mul64(xi, y3)
		lo, c = bits.Add64(lo, C, 0)
		hi += c
		t3, c = bits.Add64(t3, lo, 0)
		C = hi + c
		t4, c = bits.Add64(t4, C, 0)
		t5 = c

		// Reduce: fold in mfac·m so t becomes divisible by 2⁶⁴, shift.
		mfac := t0 * n0
		hi, lo = bits.Mul64(mfac, m0)
		_, c = bits.Add64(t0, lo, 0)
		C = hi + c
		hi, lo = bits.Mul64(mfac, m1)
		lo, c = bits.Add64(lo, C, 0)
		hi += c
		t0, c = bits.Add64(t1, lo, 0)
		C = hi + c
		hi, lo = bits.Mul64(mfac, m2)
		lo, c = bits.Add64(lo, C, 0)
		hi += c
		t1, c = bits.Add64(t2, lo, 0)
		C = hi + c
		hi, lo = bits.Mul64(mfac, m3)
		lo, c = bits.Add64(lo, C, 0)
		hi += c
		t2, c = bits.Add64(t3, lo, 0)
		C = hi + c
		t3, c = bits.Add64(t4, C, 0)
		t4 = t5 + c
	}
	md.reduceOnce(z, t0, t1, t2, t3, t4)
}

// Sqr sets z = x² (Montgomery). On the coordinate prime, where the curve
// formulas and the inversion and square-root chains spend most of their
// time, it is a dedicated squaring (14 word multiplies against Mul's 20).
func (md *Modulus) Sqr(z, x *Element) {
	if md.coord {
		p256Sqr(z, x)
		return
	}
	md.mulCIOS(z, x, x)
}

// ToMont converts a plain integer (< m) to Montgomery form.
func (md *Modulus) ToMont(z, x *Element) { md.Mul(z, x, &md.rr) }

// FromMont converts a Montgomery-form element back to the plain value.
func (md *Modulus) FromMont(z, x *Element) {
	one := Element{1}
	md.Mul(z, x, &one)
}

// One returns the Montgomery form of 1.
func (md *Modulus) One() Element { return md.one }

// ErrNonCanonical is returned by FromBytes for encodings ≥ m.
var ErrNonCanonical = errors.New("fp256: encoding is not canonical (value >= modulus)")

// FromBytes decodes 32 canonical big-endian bytes into Montgomery form,
// rejecting values ≥ m.
func (md *Modulus) FromBytes(z *Element, b []byte) error {
	if len(b) != 32 {
		return errors.New("fp256: encoding must be 32 bytes")
	}
	v := LimbsFromBytes(b)
	// v < m ?
	var bw uint64
	_, bw = bits.Sub64(v[0], md.m[0], 0)
	_, bw = bits.Sub64(v[1], md.m[1], bw)
	_, bw = bits.Sub64(v[2], md.m[2], bw)
	_, bw = bits.Sub64(v[3], md.m[3], bw)
	if bw == 0 {
		return ErrNonCanonical
	}
	md.ToMont(z, &v)
	return nil
}

// Bytes writes the canonical 32-byte big-endian encoding of the
// Montgomery-form element x into b.
func (md *Modulus) Bytes(x *Element, b []byte) {
	var v Element
	md.FromMont(&v, x)
	v.PutBytes(b)
}

// FromBig reduces a big.Int into Montgomery form (setup/test interop).
func (md *Modulus) FromBig(v *big.Int) Element {
	var z Element
	r := limbsFromBig(new(big.Int).Mod(v, md.bigM))
	md.ToMont(&z, &r)
	return z
}

// Pow sets z = x^e mod m for a plain-integer exponent e (square-and-
// multiply, MSB first; variable time — exponents here are public
// constants). Aliasing is allowed: z is only written at the end.
func (md *Modulus) Pow(z, x *Element, e *Element) {
	acc := md.one
	n := e.BitLen()
	for i := n - 1; i >= 0; i-- {
		md.Sqr(&acc, &acc)
		if e.Bit(i) == 1 {
			md.Mul(&acc, &acc, x)
		}
	}
	*z = acc
}

// Inv sets z = x⁻¹ mod m via exponentiation by m−2 (Fermat). The
// coordinate modulus uses a dedicated addition chain (255 squarings,
// 13 multiplications); other moduli fall back to the generic ladder.
// Inverting zero yields zero, mirroring the convention that callers check
// IsZero first; the EC layer never inverts zero (the point at infinity is
// tracked structurally, not as a coordinate).
func (md *Modulus) Inv(z, x *Element) {
	if md.coord {
		p256CoordInvChain(md, z, x)
		return
	}
	md.Pow(z, x, &md.pm2)
}

// sqrN squares x n times in place.
func (md *Modulus) sqrN(x *Element, n int) {
	for i := 0; i < n; i++ {
		md.Sqr(x, x)
	}
}

// p256CoordInvChain computes x⁻¹ = x^(p−2) with an addition chain tuned to
// the structure of p = 2²⁵⁶ − 2²²⁴ + 2¹⁹² + 2⁹⁶ − 1:
//
//	p − 2 = 1³² ‖ 0³¹ 1 ‖ 0⁹⁶ ‖ 1⁹⁴ ‖ 0 ‖ 1   (binary, MSB first)
//
// The doubling blocks x2, x4, …, x32 (xk has a k-ones exponent) cost 31
// squarings; the exponent is then appended left to right, the 94-ones run
// as the blocks 32 + 32 + 16 + 8 + 4 + 2: 224 more squarings, one per
// remaining bit — 255 squarings and 13 multiplications in all, versus ~380
// for the generic ladder.
func p256CoordInvChain(md *Modulus, z, x *Element) {
	var x1, x2, x4, x8, x16, x32 Element
	x1 = *x
	x2 = x1
	md.sqrN(&x2, 1)
	md.Mul(&x2, &x2, &x1)
	x4 = x2
	md.sqrN(&x4, 2)
	md.Mul(&x4, &x4, &x2)
	x8 = x4
	md.sqrN(&x8, 4)
	md.Mul(&x8, &x8, &x4)
	x16 = x8
	md.sqrN(&x16, 8)
	md.Mul(&x16, &x16, &x8)
	x32 = x16
	md.sqrN(&x32, 16)
	md.Mul(&x32, &x32, &x16)

	acc := x32               // 1³²                   (bits 255..224)
	md.sqrN(&acc, 32)        //
	md.Mul(&acc, &acc, &x1)  // ‖ 0³¹ 1               (bits 223..192)
	md.sqrN(&acc, 96+32)     // ‖ 0⁹⁶
	md.Mul(&acc, &acc, &x32) // ‖ 1³²                 (bits 95..64)
	md.sqrN(&acc, 32)        //
	md.Mul(&acc, &acc, &x32) // ‖ 1³²                 (bits 63..32)
	md.sqrN(&acc, 16)        //
	md.Mul(&acc, &acc, &x16) // ‖ 1¹⁶                 (bits 31..16)
	md.sqrN(&acc, 8)         //
	md.Mul(&acc, &acc, &x8)  // ‖ 1⁸                  (bits 15..8)
	md.sqrN(&acc, 4)         //
	md.Mul(&acc, &acc, &x4)  // ‖ 1⁴                  (bits 7..4)
	md.sqrN(&acc, 2)         //
	md.Mul(&acc, &acc, &x2)  // ‖ 1²                  (bits 3..2)
	md.sqrN(&acc, 2)         //
	md.Mul(&acc, &acc, &x1)  // ‖ 01                  (bits 1..0)
	*z = acc
}

// sqrtCalls counts Sqrt calls; see SqrtCalls.
var sqrtCalls atomic.Uint64

// SqrtCalls reports how many times Sqrt has run in this process. It is a
// test counter: a reader of hinted board records must take no square roots,
// and a test tells so by reading this before and after. Nothing else reads
// it, and the one atomic add is noise beside the root itself.
func SqrtCalls() uint64 { return sqrtCalls.Load() }

// Sqrt sets z to a square root of x mod p when one exists, reporting
// success. Only defined for the coordinate modulus (p ≡ 3 mod 4), where
// the candidate root is x^((p+1)/4):
//
//	(p+1)/4 = 1³² ‖ 0³¹ 1 ‖ 0⁹⁵ 1 ‖ 0⁹⁴   (binary, 254 bits)
//
// computed with the analogous addition chain (253 squarings, 10
// multiplications), then verified by squaring.
func (md *Modulus) Sqrt(z, x *Element) bool {
	if !md.hasSqrt {
		panic("fp256: Sqrt undefined for this modulus")
	}
	sqrtCalls.Add(1)
	var x1, x2, x4, x8, x16, x32 Element
	x1 = *x
	x2 = x1
	md.sqrN(&x2, 1)
	md.Mul(&x2, &x2, &x1)
	x4 = x2
	md.sqrN(&x4, 2)
	md.Mul(&x4, &x4, &x2)
	x8 = x4
	md.sqrN(&x8, 4)
	md.Mul(&x8, &x8, &x4)
	x16 = x8
	md.sqrN(&x16, 8)
	md.Mul(&x16, &x16, &x8)
	x32 = x16
	md.sqrN(&x32, 16)
	md.Mul(&x32, &x32, &x16)

	acc := x32              // 1³²       (bits 253..222)
	md.sqrN(&acc, 32)       //
	md.Mul(&acc, &acc, &x1) // ‖ 0³¹ 1   (bit 190)
	md.sqrN(&acc, 96)       //
	md.Mul(&acc, &acc, &x1) // ‖ 0⁹⁵ 1   (bit 94)
	md.sqrN(&acc, 94)       // ‖ 0⁹⁴

	var check Element
	md.Sqr(&check, &acc)
	if !check.Equal(x) {
		return false
	}
	*z = acc
	return true
}

// IsOddPlain reports whether the plain (non-Montgomery) value of the
// Montgomery-form element x is odd — the Y-parity bit of point encodings.
func (md *Modulus) IsOddPlain(x *Element) bool {
	var v Element
	md.FromMont(&v, x)
	return v[0]&1 == 1
}
