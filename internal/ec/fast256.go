package ec

// Fast P-256 backend: in-place Jacobian point arithmetic over the
// fixed-width Montgomery fields of internal/fp256, plus the three scalar
// multiplication strategies the protocol's hot paths need:
//
//   - P256ScalarMult: width-5 wNAF variable-base multiplication (Σ-proof
//     statement terms, commitment ScalarMul).
//   - P256Table: fixed-base windowed tables for the Pedersen generators
//     g and h, with a fused two-table accumulation for Com(x, r).
//   - P256MultiExp: Pippenger signed-digit bucket multi-exponentiation for
//     the batched Σ-OR verification product (hundreds to thousands of
//     terms), replacing per-term windowing with shared buckets, its window
//     picked per call from a cost model over the scalars' lengths.
//
// All functions mutate receiver/out parameters in place and allocate only
// where documented, which is what drives the commit path to near-zero
// allocs/op. The math/big Curve in this package remains the reference
// implementation; fast256_test.go proves the two agree (and agree with
// crypto/elliptic) on randomized corpora and adversarial edge cases.

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/fp256"
)

// P256Point is a point on P-256 in Jacobian coordinates (X/Z², Y/Z³) with
// all coordinates in Montgomery form. Z = 0 encodes the point at infinity.
// The zero value is the point at infinity.
type P256Point struct {
	x, y, z fp256.Element
}

// P256Affine is an affine point (Montgomery-form coordinates) or the point
// at infinity. Affine points feed the mixed-addition fast path.
type P256Affine struct {
	x, y fp256.Element
	inf  bool
}

var (
	fp = fp256.P()

	// curve constants in Montgomery form, set at init from the reference
	// curve parameters (math/big at init only).
	p256B  fp256.Element
	p256Gx fp256.Element
	p256Gy fp256.Element
)

func init() {
	c := StdP256()
	p256B = fp.FromBig(c.b.BigInt())
	p256Gx = fp.FromBig(c.gx.BigInt())
	p256Gy = fp.FromBig(c.gy.BigInt())
}

// P256Generator returns the base point G in Jacobian form.
func P256Generator() P256Point {
	return P256Point{x: p256Gx, y: p256Gy, z: fp.One()}
}

// SetInfinity sets r to the identity.
func (r *P256Point) SetInfinity() { *r = P256Point{} }

// IsInfinity reports whether r is the identity.
func (r *P256Point) IsInfinity() bool { return r.z.IsZero() }

// Set copies p into r.
func (r *P256Point) Set(p *P256Point) { *r = *p }

// SetAffine loads an affine point into Jacobian form (Z = 1).
func (r *P256Point) SetAffine(a *P256Affine) {
	if a.inf {
		r.SetInfinity()
		return
	}
	r.x, r.y, r.z = a.x, a.y, fp.One()
}

// Neg sets r = -p. r may alias p.
func (r *P256Point) Neg(p *P256Point) {
	r.x, r.z = p.x, p.z
	fp.Neg(&r.y, &p.y)
}

// Neg sets r = -a for affine points.
func (r *P256Affine) Neg(a *P256Affine) {
	r.x, r.inf = a.x, a.inf
	fp.Neg(&r.y, &a.y)
}

// Double sets r = 2p using the a = -3 doubling formulas (dbl-2001-b:
// 3M + 5S). r may alias p. Identity and 2-torsion collapse to Z = 0
// naturally (Z₃ = 2YZ).
func (r *P256Point) Double(p *P256Point) {
	var delta, gamma, beta, alpha, t0, t1, x3, y3, z3 fp256.Element
	fp.Sqr(&delta, &p.z)        // delta = Z²
	fp.Sqr(&gamma, &p.y)        // gamma = Y²
	fp.Mul(&beta, &p.x, &gamma) // beta = X·gamma
	// alpha = 3(X - delta)(X + delta)
	fp.Sub(&t0, &p.x, &delta)
	fp.Add(&t1, &p.x, &delta)
	fp.Mul(&alpha, &t0, &t1)
	fp.Double(&t0, &alpha)
	fp.Add(&alpha, &alpha, &t0)
	// X₃ = alpha² - 8beta
	fp.Sqr(&x3, &alpha)
	fp.Double(&t0, &beta)
	fp.Double(&t0, &t0)
	fp.Double(&t1, &t0) // t1 = 8beta, t0 = 4beta
	fp.Sub(&x3, &x3, &t1)
	// Z₃ = (Y + Z)² - gamma - delta = 2YZ
	fp.Add(&z3, &p.y, &p.z)
	fp.Sqr(&z3, &z3)
	fp.Sub(&z3, &z3, &gamma)
	fp.Sub(&z3, &z3, &delta)
	// Y₃ = alpha(4beta - X₃) - 8gamma²
	fp.Sub(&t0, &t0, &x3)
	fp.Mul(&y3, &alpha, &t0)
	fp.Sqr(&t1, &gamma)
	fp.Double(&t1, &t1)
	fp.Double(&t1, &t1)
	fp.Double(&t1, &t1)
	fp.Sub(&y3, &y3, &t1)
	r.x, r.y, r.z = x3, y3, z3
}

// Add sets r = p + q (add-2007-bl with explicit identity/doubling
// handling, mirroring the reference backend's case analysis). r may alias
// p or q.
func (r *P256Point) Add(p, q *P256Point) {
	if p.IsInfinity() {
		r.Set(q)
		return
	}
	if q.IsInfinity() {
		r.Set(p)
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2 fp256.Element
	fp.Sqr(&z1z1, &p.z)
	fp.Sqr(&z2z2, &q.z)
	fp.Mul(&u1, &p.x, &z2z2)
	fp.Mul(&u2, &q.x, &z1z1)
	fp.Mul(&s1, &p.y, &q.z)
	fp.Mul(&s1, &s1, &z2z2)
	fp.Mul(&s2, &q.y, &p.z)
	fp.Mul(&s2, &s2, &z1z1)
	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			r.Double(p)
			return
		}
		r.SetInfinity() // p = -q
		return
	}
	var h, i, j, rr, v, t, x3, y3, z3 fp256.Element
	fp.Sub(&h, &u2, &u1)
	fp.Double(&i, &h)
	fp.Sqr(&i, &i)
	fp.Mul(&j, &h, &i)
	fp.Sub(&rr, &s2, &s1)
	fp.Double(&rr, &rr)
	fp.Mul(&v, &u1, &i)
	// X₃ = r² - J - 2V
	fp.Sqr(&x3, &rr)
	fp.Sub(&x3, &x3, &j)
	fp.Double(&t, &v)
	fp.Sub(&x3, &x3, &t)
	// Y₃ = r(V - X₃) - 2·S1·J
	fp.Sub(&t, &v, &x3)
	fp.Mul(&y3, &rr, &t)
	fp.Mul(&t, &s1, &j)
	fp.Double(&t, &t)
	fp.Sub(&y3, &y3, &t)
	// Z₃ = ((Z1 + Z2)² - Z1Z1 - Z2Z2)·H
	fp.Add(&z3, &p.z, &q.z)
	fp.Sqr(&z3, &z3)
	fp.Sub(&z3, &z3, &z1z1)
	fp.Sub(&z3, &z3, &z2z2)
	fp.Mul(&z3, &z3, &h)
	r.x, r.y, r.z = x3, y3, z3
}

// AddAffine sets r = p + q for an affine q (mixed addition, madd-2007-bl:
// 7M + 4S versus 11M + 5S for the general add). r may alias p.
func (r *P256Point) AddAffine(p *P256Point, q *P256Affine) {
	if q.inf {
		r.Set(p)
		return
	}
	if p.IsInfinity() {
		r.SetAffine(q)
		return
	}
	var z1z1, u2, s2 fp256.Element
	fp.Sqr(&z1z1, &p.z)
	fp.Mul(&u2, &q.x, &z1z1)
	fp.Mul(&s2, &q.y, &p.z)
	fp.Mul(&s2, &s2, &z1z1)
	if p.x.Equal(&u2) {
		if p.y.Equal(&s2) {
			r.Double(p)
			return
		}
		r.SetInfinity()
		return
	}
	var h, hh, i, j, rr, v, t, x3, y3, z3 fp256.Element
	fp.Sub(&h, &u2, &p.x)
	fp.Sqr(&hh, &h)
	fp.Double(&i, &hh)
	fp.Double(&i, &i) // I = 4·HH
	fp.Mul(&j, &h, &i)
	fp.Sub(&rr, &s2, &p.y)
	fp.Double(&rr, &rr)
	fp.Mul(&v, &p.x, &i)
	fp.Sqr(&x3, &rr)
	fp.Sub(&x3, &x3, &j)
	fp.Double(&t, &v)
	fp.Sub(&x3, &x3, &t)
	fp.Sub(&t, &v, &x3)
	fp.Mul(&y3, &rr, &t)
	fp.Mul(&t, &p.y, &j)
	fp.Double(&t, &t)
	fp.Sub(&y3, &y3, &t)
	// Z₃ = (Z1 + H)² - Z1Z1 - HH
	fp.Add(&z3, &p.z, &h)
	fp.Sqr(&z3, &z3)
	fp.Sub(&z3, &z3, &z1z1)
	fp.Sub(&z3, &z3, &hh)
	r.x, r.y, r.z = x3, y3, z3
}

// Equal reports whether p and q are the same point, comparing
// cross-multiplied Jacobian coordinates so no inversion is needed:
// X1·Z2² = X2·Z1² and Y1·Z2³ = Y2·Z1³.
func (p *P256Point) Equal(q *P256Point) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	var z1z1, z2z2, l, r fp256.Element
	fp.Sqr(&z1z1, &p.z)
	fp.Sqr(&z2z2, &q.z)
	fp.Mul(&l, &p.x, &z2z2)
	fp.Mul(&r, &q.x, &z1z1)
	if !l.Equal(&r) {
		return false
	}
	fp.Mul(&z2z2, &z2z2, &q.z)
	fp.Mul(&z1z1, &z1z1, &p.z)
	fp.Mul(&l, &p.y, &z2z2)
	fp.Mul(&r, &q.y, &z1z1)
	return l.Equal(&r)
}

// ToAffine normalizes p with one field inversion.
func (p *P256Point) ToAffine() P256Affine {
	if p.IsInfinity() {
		return P256Affine{inf: true}
	}
	var zinv, zinv2 fp256.Element
	fp.Inv(&zinv, &p.z)
	fp.Sqr(&zinv2, &zinv)
	var a P256Affine
	fp.Mul(&a.x, &p.x, &zinv2)
	fp.Mul(&zinv2, &zinv2, &zinv)
	fp.Mul(&a.y, &p.y, &zinv2)
	return a
}

// P256BatchAffine normalizes many Jacobian points with a single inversion
// (Montgomery's trick over the Z coordinates), writing into out, which
// must have the same length as pts. Infinities pass through.
func P256BatchAffine(out []P256Affine, pts []P256Point) {
	if len(out) != len(pts) {
		panic("ec: P256BatchAffine length mismatch")
	}
	if len(pts) == 0 {
		return
	}
	// prefix[i] = z_0 · … · z_i over the non-infinite points.
	prefix := make([]fp256.Element, len(pts))
	acc := fp.One()
	for i := range pts {
		if !pts[i].IsInfinity() {
			fp.Mul(&acc, &acc, &pts[i].z)
		}
		prefix[i] = acc
	}
	var inv fp256.Element
	fp.Inv(&inv, &acc)
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].IsInfinity() {
			out[i] = P256Affine{inf: true}
			continue
		}
		var zinv fp256.Element
		if i == 0 {
			zinv = inv
		} else {
			fp.Mul(&zinv, &inv, &prefix[i-1])
		}
		fp.Mul(&inv, &inv, &pts[i].z)
		var zinv2 fp256.Element
		fp.Sqr(&zinv2, &zinv)
		fp.Mul(&out[i].x, &pts[i].x, &zinv2)
		fp.Mul(&zinv2, &zinv2, &zinv)
		fp.Mul(&out[i].y, &pts[i].y, &zinv2)
		out[i].inf = false
	}
}

// --- scalar multiplication ---

// wnafWidth is the window width for variable-base wNAF multiplication:
// 8 precomputed odd multiples, ~256/(width+1) ≈ 43 additions.
const wnafWidth = 5

// p256WNAF writes the width-w NAF digits of k (plain limbs, any value
// < 2²⁵⁶) into digits, returning the number of digits. digits must hold
// at least 258 entries. Every nonzero digit is odd with |d| ≤ 2^(w-1)-1,
// and nonzero digits are separated by ≥ w-1 zeros. Adding |d| back for a
// negative digit can carry out of the 256-bit range (k ≥ 2²⁵⁶−2^(w-1)),
// so the working value keeps a virtual fifth limb.
func p256WNAF(digits []int8, k fp256.Element, w uint) int {
	mask := uint64(1<<w) - 1
	half := uint64(1) << (w - 1)
	var k4 uint64 // carry limb: bits 256+
	n := 0
	for !k.IsZero() || k4 != 0 {
		var d int64
		if k[0]&1 == 1 {
			ud := k[0] & mask
			if ud >= half {
				d = int64(ud) - int64(1<<w)
			} else {
				d = int64(ud)
			}
			// k -= d
			if d >= 0 {
				var b uint64
				k[0], b = bits.Sub64(k[0], uint64(d), 0)
				k[1], b = bits.Sub64(k[1], 0, b)
				k[2], b = bits.Sub64(k[2], 0, b)
				k[3], b = bits.Sub64(k[3], 0, b)
				k4 -= b // d ≤ k here, so this never underflows
			} else {
				var c uint64
				k[0], c = bits.Add64(k[0], uint64(-d), 0)
				k[1], c = bits.Add64(k[1], 0, c)
				k[2], c = bits.Add64(k[2], 0, c)
				k[3], c = bits.Add64(k[3], 0, c)
				k4 += c
			}
		}
		digits[n] = int8(d)
		n++
		// k >>= 1 (through the carry limb)
		k[0] = k[0]>>1 | k[1]<<63
		k[1] = k[1]>>1 | k[2]<<63
		k[2] = k[2]>>1 | k[3]<<63
		k[3] = k[3]>>1 | k4<<63
		k4 >>= 1
	}
	return n
}

// P256ScalarMult sets r = k·p for a plain-integer scalar k < 2²⁵⁶
// (protocol scalars are canonical, < n). r may alias p.
func (r *P256Point) ScalarMult(p *P256Point, k fp256.Element) {
	if p.IsInfinity() || k.IsZero() {
		r.SetInfinity()
		return
	}
	// Odd multiples 1P, 3P, …, 15P.
	var table [1 << (wnafWidth - 2)]P256Point
	table[0].Set(p)
	var twoP P256Point
	twoP.Double(p)
	for i := 1; i < len(table); i++ {
		table[i].Add(&table[i-1], &twoP)
	}
	var digits [258]int8
	n := p256WNAF(digits[:], k, wnafWidth)
	var acc P256Point
	acc.SetInfinity()
	for i := n - 1; i >= 0; i-- {
		acc.Double(&acc)
		if d := digits[i]; d > 0 {
			acc.Add(&acc, &table[(d-1)/2])
		} else if d < 0 {
			var neg P256Point
			neg.Neg(&table[(-d-1)/2])
			acc.Add(&acc, &neg)
		}
	}
	r.Set(&acc)
}

// --- fixed-base tables (Pedersen generators) ---

// tableWindow is the fixed-base window width in bits, matching the generic
// group.Precomp geometry: 32 windows of 255 odd entries each.
const tableWindow = 8

// P256Table is a precomputed fixed-base multiplication table: 32 windows
// of the 255 nonzero multiples of the base shifted by 8w bits, stored in
// affine form so every table hit is a mixed addition. Immutable after
// construction and safe for concurrent use.
type P256Table struct {
	win [32][255]P256Affine
}

// NewP256Table builds the table for base (≈8160 Jacobian additions and a
// single batched inversion); intended to run once per generator at group
// construction.
func NewP256Table(base *P256Point) *P256Table {
	t := &P256Table{}
	jac := make([]P256Point, 32*255)
	var cur P256Point
	cur.Set(base)
	for w := 0; w < 32; w++ {
		row := jac[w*255 : (w+1)*255]
		var acc P256Point
		acc.Set(&cur)
		for d := 1; d <= 255; d++ {
			row[d-1].Set(&acc)
			acc.Add(&acc, &cur)
		}
		cur.Set(&acc) // acc = 256·cur = cur shifted one window
	}
	aff := make([]P256Affine, len(jac))
	P256BatchAffine(aff, jac)
	for w := 0; w < 32; w++ {
		copy(t.win[w][:], aff[w*255:(w+1)*255])
	}
	return t
}

// AddMul adds k·base into acc, one mixed addition per nonzero byte of the
// scalar (little-endian byte w selects window w). This is the fused
// building block: Com(x, r) is gTable.AddMul + hTable.AddMul on one
// accumulator, no intermediate point materialized.
func (t *P256Table) AddMul(acc *P256Point, k fp256.Element) {
	for w := 0; w < 32; w++ {
		d := (k[w/8] >> ((w % 8) * 8)) & 0xff
		if d != 0 {
			acc.AddAffine(acc, &t.win[w][d-1])
		}
	}
}

// Mul sets r = k·base.
func (t *P256Table) Mul(r *P256Point, k fp256.Element) {
	var acc P256Point
	acc.SetInfinity()
	t.AddMul(&acc, k)
	r.Set(&acc)
}

// --- multi-exponentiation ---

// Field multiplications per point operation (M and S both counted as one):
// the currency of the window cost model below and of the budget tables in
// EXPERIMENTS.md.
const (
	costMixedAdd = 11 // AddAffine, 7M + 4S
	costAdd      = 16 // Add, 11M + 5S
	costDouble   = 8  // Double, 3M + 5S
)

// p256MaxWindow bounds the bucket window: 2¹² buckets of 96 bytes is the
// most scratch one call may take.
const p256MaxWindow = 13

// p256PippengerWindow picks the signed-bucket window width c for one
// product from a cost model: reach[b] is the number of terms
// whose scalar is at least b bits long, so window w — bits [wc, wc+c) —
// costs reach[wc] mixed additions to fill (shorter scalars have no digit
// there; a 128-bit batching coefficient stops costing anything above
// window 128/c), 2·2^(c−1) general additions to collapse, and c doublings;
// and there are maxBits/c + 1 windows, counted from the longest scalar
// present, not from 256.
func p256PippengerWindow(reach *[258]int, maxBits int) uint {
	best, bestCost := uint(0), 0
	for c := 2; c <= p256MaxWindow; c++ {
		cost := 0
		for lo := 0; lo <= maxBits; lo += c {
			cost += reach[lo]*costMixedAdd + (1<<c)*costAdd + c*costDouble
		}
		if best == 0 || cost < bestCost {
			best, bestCost = uint(c), cost
		}
	}
	return best
}

// p256SmallMultiExp is the term count below which bucket set-up does not
// pay and P256MultiExp interleaves wNAF digits on one doubling chain.
const p256SmallMultiExp = 8

// p256ParallelMultiExp is the term count below which a product stays on the
// calling goroutine whatever workers says. Products that small (a Coins-8
// coin check is 24 terms, 0.6 ms) run inside a per-prover fan-out or on an
// admission path whose cores are already taken, where a hand-off and a
// second bucket array buy nothing.
const p256ParallelMultiExp = 32

// P256MultiExp computes Σ kᵢ·Pᵢ. From p256SmallMultiExp terms up it is
// Pippenger's bucket method over signed windows: each c-bit window of
// every scalar drops its point into one of 2^(c-1) shared buckets
// (negative digits contribute the negated point, free in affine form), and
// the buckets collapse with a running suffix sum — ≈ bits/c·(n + 2^c)
// additions versus Straus's ~n·bits/4, a large win for the
// thousands-of-terms batched Σ-OR verification. The window comes from
// p256PippengerWindow. Below that it is p256StrausWNAF.
//
// The windows are independent until their sums are combined, so from
// p256ParallelMultiExp terms up they are shared among up to workers
// goroutines, the caller's included (workers ≤ 1: the caller alone). Which
// goroutine sums a window does not change the sum, and the combining chain
// runs on the caller, so the result is the same limb for limb at every
// worker count.
//
// points and scalars must have equal length; scalars are plain limb
// integers (< 2²⁵⁶). Infinite points and zero scalars contribute nothing.
func P256MultiExp(points []P256Affine, scalars []fp256.Element, workers int) P256Point {
	if len(points) != len(scalars) {
		panic("ec: P256MultiExp length mismatch")
	}
	if len(points) < p256SmallMultiExp {
		return p256StrausWNAF(points, scalars)
	}
	n := len(points)
	// reach[b] = live terms with a scalar of at least b bits.
	var reach [258]int
	maxBits := 0
	for i := range scalars {
		if points[i].inf {
			continue
		}
		bl := scalars[i].BitLen()
		reach[bl]++
		if bl > maxBits {
			maxBits = bl
		}
	}
	for b := maxBits - 1; b >= 0; b-- {
		reach[b] += reach[b+1]
	}
	var acc P256Point
	if maxBits == 0 {
		return acc
	}
	c := p256PippengerWindow(&reach, maxBits)
	// Signed digits: window values > 2^(c-1) borrow from the next window,
	// so digits lie in (-2^(c-1), 2^(c-1)]. maxBits/c + 1 windows always
	// absorb the last borrow: the top one holds only maxBits mod c < c
	// scalar bits, so its digit stays ≤ 2^(c-1) with the borrow added.
	numWin := maxBits/int(c) + 1
	digits := make([]int16, n*numWin)
	for i := range scalars {
		if points[i].inf {
			continue
		}
		k := &scalars[i]
		carry := int32(0)
		for w := 0; w < numWin; w++ {
			bit := w * int(c)
			limb := bit / 64
			var v uint64
			if limb < 4 {
				off := uint(bit % 64)
				v = k[limb] >> off
				if off+c > 64 && limb+1 < 4 {
					v |= k[limb+1] << (64 - off)
				}
			}
			d := int32(v&((1<<c)-1)) + carry
			if d > 1<<(c-1) {
				d -= 1 << c
				carry = 1
			} else {
				carry = 0
			}
			digits[i*numWin+w] = int16(d)
		}
		if carry != 0 {
			panic("ec: P256MultiExp scalar overflow")
		}
	}
	// sums[w] = Σᵢ digitᵢ(w)·Pᵢ. Windows are handed out lowest first: the
	// low ones hold every term, the top ones only the long scalars, so the
	// expensive windows start earliest.
	sums := make([]P256Point, numWin)
	var next atomic.Int32
	sumWindows := func() {
		buckets := make([]P256Point, 1<<(c-1))
		var neg P256Affine
		var run, sum P256Point
		for {
			w := int(next.Add(1)) - 1
			if w >= numWin {
				return
			}
			for b := range buckets {
				buckets[b].SetInfinity()
			}
			for i := range points {
				if points[i].inf {
					continue
				}
				d := digits[i*numWin+w]
				if d > 0 {
					buckets[d-1].AddAffine(&buckets[d-1], &points[i])
				} else if d < 0 {
					neg.Neg(&points[i])
					buckets[-d-1].AddAffine(&buckets[-d-1], &neg)
				}
			}
			run.SetInfinity()
			sum.SetInfinity()
			for b := len(buckets) - 1; b >= 0; b-- {
				run.Add(&run, &buckets[b])
				sum.Add(&sum, &run)
			}
			sums[w] = sum
		}
	}
	if workers > numWin {
		workers = numWin
	}
	if n < p256ParallelMultiExp {
		workers = 1
	}
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sumWindows()
		}()
	}
	sumWindows()
	wg.Wait()
	for w := numWin - 1; w >= 0; w-- {
		for s := uint(0); s < c; s++ {
			acc.Double(&acc)
		}
		acc.Add(&acc, &sums[w])
	}
	return acc
}

// p256StrausWNAF computes Σ kᵢ·Pᵢ for a handful of terms: every term gets
// the odd-multiples table and width-5 wNAF digits of ScalarMult, and all of
// them ride one doubling chain as long as the longest scalar — a folded
// check of one Σ-OR proof pays 256 doublings, not 256 + 2·128.
func p256StrausWNAF(points []P256Affine, scalars []fp256.Element) P256Point {
	var (
		tables [p256SmallMultiExp - 1][1 << (wnafWidth - 2)]P256Point
		digits [p256SmallMultiExp - 1][258]int8
		lens   [p256SmallMultiExp - 1]int
	)
	top := 0
	for i := range points {
		if points[i].inf {
			continue
		}
		lens[i] = p256WNAF(digits[i][:], scalars[i], wnafWidth)
		if lens[i] == 0 {
			continue
		}
		var twoP P256Point
		tables[i][0].SetAffine(&points[i])
		twoP.Double(&tables[i][0])
		for j := 1; j < len(tables[i]); j++ {
			tables[i][j].Add(&tables[i][j-1], &twoP)
		}
		if lens[i] > top {
			top = lens[i]
		}
	}
	var acc, neg P256Point
	for b := top - 1; b >= 0; b-- {
		acc.Double(&acc)
		for i := range points {
			if b >= lens[i] {
				continue
			}
			if d := digits[i][b]; d > 0 {
				acc.Add(&acc, &tables[i][(d-1)/2])
			} else if d < 0 {
				neg.Neg(&tables[i][(-d-1)/2])
				acc.Add(&acc, &neg)
			}
		}
	}
	return acc
}

// --- encoding (identical bytes to the reference Curve.Encode/Decode) ---

// Encode writes the canonical 33-byte compressed encoding (sign byte ‖ X)
// into out; the identity is all zeros. Byte-compatible with Curve.Encode
// on the reference backend — transcripts cannot tell the backends apart.
func (a *P256Affine) Encode(out []byte) {
	if len(out) != 33 {
		panic("ec: P256Affine.Encode needs 33 bytes")
	}
	if a.inf {
		for i := range out {
			out[i] = 0
		}
		return
	}
	if fp.IsOddPlain(&a.y) {
		out[0] = 0x03
	} else {
		out[0] = 0x02
	}
	fp.Bytes(&a.x, out[1:])
}

// AppendY appends a's y coordinate to dst, 32 bytes big-endian (zeros for
// the identity): the hint P256DecodeHinted checks in place of a root.
func (a *P256Affine) AppendY(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, 32)...)
	if !a.inf {
		fp.Bytes(&a.y, dst[n:])
	}
	return dst
}

// errWrongHint refuses a y hint that is not the encoded point's.
var errWrongHint = errors.New("ec: hint is not the y coordinate of the encoded point")

// P256DecodeAffine parses a canonical 33-byte compressed encoding,
// rejecting everything Curve.Decode rejects: wrong length, unknown prefix,
// non-canonical X (≥ p), X not on the curve, malformed identity padding.
func P256DecodeAffine(b []byte) (P256Affine, error) {
	return p256Decode(b, nil)
}

// P256DecodeHinted is P256DecodeAffine given the point's y coordinate as
// AppendY writes it, which it checks instead of taking a square root:
// y < p, y² = x³ − 3x + b, and y's parity is the prefix's. At most one y of
// a given parity lies on the curve over x, so it accepts exactly when
// P256DecodeAffine accepts b and computes y = hint, and then yields the same
// point, for a few field multiplications.
func P256DecodeHinted(b, hint []byte) (P256Affine, error) {
	if len(hint) != 32 {
		return P256Affine{}, fmt.Errorf("ec: hint has %d bytes, want 32", len(hint))
	}
	return p256Decode(b, hint)
}

// p256Decode is both decoders: a nil hint recovers y with a square root.
func p256Decode(b, hint []byte) (P256Affine, error) {
	var a P256Affine
	if len(b) != 33 {
		return a, fmt.Errorf("ec: encoding has %d bytes, want 33", len(b))
	}
	switch b[0] {
	case 0x00:
		for _, v := range b[1:] {
			if v != 0 {
				return a, errors.New("ec: malformed identity encoding")
			}
		}
		for _, v := range hint {
			if v != 0 {
				return a, errWrongHint
			}
		}
		a.inf = true
		return a, nil
	case 0x02, 0x03:
		if err := fp.FromBytes(&a.x, b[1:]); err != nil {
			return a, fmt.Errorf("ec: bad x coordinate: %w", err)
		}
		// y² = x³ - 3x + b
		var rhs, t fp256.Element
		fp.Sqr(&rhs, &a.x)
		fp.Mul(&rhs, &rhs, &a.x)
		fp.Double(&t, &a.x)
		fp.Add(&t, &t, &a.x)
		fp.Sub(&rhs, &rhs, &t)
		fp.Add(&rhs, &rhs, &p256B)
		if hint != nil {
			if hint[31]&1 != b[0]&1 || fp.FromBytes(&a.y, hint) != nil {
				return a, errWrongHint
			}
			fp.Sqr(&t, &a.y)
			if !t.Equal(&rhs) {
				return a, errWrongHint
			}
			return a, nil
		}
		if !fp.Sqrt(&a.y, &rhs) {
			return a, errors.New("ec: x is not on the curve")
		}
		if fp.IsOddPlain(&a.y) != (b[0] == 0x03) {
			fp.Neg(&a.y, &a.y)
		}
		return a, nil
	default:
		return a, fmt.Errorf("ec: unknown point format byte %#x", b[0])
	}
}

// P256AffineFromPoint converts a reference-backend affine point. Used at
// setup time (generator derivation, hash-to-point) to enter the fast
// representation; never on a hot path.
func P256AffineFromPoint(p *Point) (P256Affine, error) {
	if p.Curve() != StdP256() {
		return P256Affine{}, errors.New("ec: point is not on the shared P-256 curve")
	}
	if p.IsInfinity() {
		return P256Affine{inf: true}, nil
	}
	x, y := p.XY()
	return P256Affine{x: fp.FromBig(x), y: fp.FromBig(y)}, nil
}
