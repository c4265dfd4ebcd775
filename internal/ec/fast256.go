// Package ec implements the NIST P-256 curve (secp256r1) over the
// fixed-width Montgomery fields of internal/fp256: in-place Jacobian point
// arithmetic, the three scalar multiplication strategies the protocol's hot
// paths need, canonical compressed encodings, and the try-and-increment
// hash-to-point that derives the second Pedersen generator h.
//
//   - P256ScalarMult: width-5 wNAF variable-base multiplication (Σ-proof
//     statement terms, commitment ScalarMul).
//   - P256Table: fixed-base windowed tables for the Pedersen generators
//     g and h, with a fused two-table accumulation for Com(x, r).
//   - P256MultiExp: Pippenger signed-digit bucket multi-exponentiation for
//     the batched Σ-OR verification product (hundreds to thousands of
//     terms), replacing per-term windowing with shared buckets that stay
//     affine while they fill — their additions share one inversion a round
//     — its window picked per call from a cost model over the scalars'
//     lengths.
//
// All functions mutate receiver/out parameters in place and allocate only
// where documented, which is what drives the commit path to near-zero
// allocs/op; P256MultiExp's bucket scratch comes from a pool. The tests
// hold this code to a generic math/big curve (curve_test.go,
// reference_test.go) and to crypto/elliptic on randomized corpora and
// adversarial edge cases; no program builds that curve.
package ec

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
	p256XY
	inf bool
}

// p256XY is a finite affine point: the coordinates of a P256Affine, and a
// bucket entry of P256MultiExp's affine fill.
type p256XY struct{ x, y fp256.Element }

var (
	fp = fp256.P()

	// The curve's b and base point G (SEC 2, FIPS 186-4; a = −3), as plain
	// little-endian limbs entered into Montgomery form.
	p256B  = mont(fp256.Element{0x3bce3c3e27d2604b, 0x651d06b0cc53b0f6, 0xb3ebbd55769886bc, 0x5ac635d8aa3a93e7})
	p256Gx = mont(fp256.Element{0xf4a13945d898c296, 0x77037d812deb33a0, 0xf8bce6e563a440f2, 0x6b17d1f2e12c4247})
	p256Gy = mont(fp256.Element{0xcbb6406837bf51f5, 0x2bce33576b315ece, 0x8ee7eb4a7c0f9e16, 0x4fe342e2fe1a7f9b})
)

func mont(v fp256.Element) fp256.Element {
	fp.ToMont(&v, &v)
	return v
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
// handling, mirroring the test reference curve's case analysis). r may alias
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
// EXPERIMENTS.md. A batch-affine bucket addition is 5M + 1S (3M of it
// Montgomery's trick) but counts 7: its six additions and subtractions and
// its loads weigh more beside six multiplications than beside the other
// operations' eleven or sixteen, and at 7 the model picks the window a
// sweep of every width measures fastest (EXPERIMENTS.md).
const (
	costBucketAdd = 7  // a batch-affine bucket addition
	costMixedAdd  = 11 // AddAffine, 7M + 4S
	costAdd       = 16 // Add, 11M + 5S
	costDouble    = 8  // Double, 3M + 5S
)

// p256MaxWindow bounds the bucket window at 2¹² buckets a window.
const p256MaxWindow = 13

// p256RunEntries bounds the bucket entries of one run of windows, and so a
// worker's scratch at ≈ 52 bytes an entry (p256Run): ≈ 210 KiB. Only a
// single window with more terms than this exceeds it, by its own term
// count. Pooled scratch is live heap, which sets the collector's goal, so
// the budget trades resident memory (2¹³ entries raised the benchmark's
// node-single peak by ≈ 0.8 MiB more) against the inversions of the extra
// runs a smaller one cuts a large product into.
const p256RunEntries = 1 << 12

// p256PippengerWindow picks the signed-bucket window width c for one
// product from a cost model: reach[b] is the number of terms
// whose scalar is at least b bits long, so window w — bits [wc, wc+c) —
// costs reach[wc] batch-affine additions to fill (shorter scalars have no
// digit there; a 128-bit batching coefficient stops costing anything above
// window 128/c), 2^(c−1) mixed and 2^(c−1) general additions to collapse,
// and c doublings; and there are maxBits/c + 1 windows, counted from the
// longest scalar present, not from 256. The fill's inversions, one per
// round of a run of windows, are left out: shared by every bucket of the
// run, they come to a few multiplications a window.
func p256PippengerWindow(reach *[258]int, maxBits int) uint {
	best, bestCost := uint(0), 0
	for c := 2; c <= p256MaxWindow; c++ {
		cost := 0
		for lo := 0; lo <= maxBits; lo += c {
			cost += reach[lo]*costBucketAdd + (1<<(c-1))*(costMixedAdd+costAdd) + c*costDouble
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
// coin check is 24 terms, 0.4 ms) run inside a per-prover fan-out or on an
// admission path whose cores are already taken, where a hand-off and a
// second run's inversions buy nothing.
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
// The buckets stay affine while they fill (El Housni and Botrel, EdMSM,
// IACR ePrint 2022/1400): the windows are cut into runs of consecutive
// windows, and a run's buckets are added up in rounds of pairwise affine
// additions whose denominators, across every bucket of every window of the
// run, share one field inversion (p256Run.reduce). An addition then costs
// 5M + 1S against the mixed addition's 7M + 4S, and a round's inversion is
// shared by thousands of them.
//
// The windows are independent until their sums are combined, so from
// p256ParallelMultiExp terms up the runs — at least one per worker — are
// shared among up to workers goroutines, the caller's included (workers ≤
// 1: the caller alone). Affine sums have one representation, so neither
// the cut into runs nor which goroutine sums a run changes a window's sum,
// and the combining chain runs on the caller: the result is the same limb
// for limb at every worker count.
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
	// maxBits/c + 1 windows always absorb the last signed-digit borrow
	// (p256SignedDigits): the top one holds only maxBits mod c < c scalar
	// bits, so its digit stays ≤ 2^(c-1) with the borrow added.
	numWin := maxBits/int(c) + 1
	if n < p256ParallelMultiExp || workers < 1 {
		workers = 1
	}
	digits := make([]int16, numWin*n)
	p256SignedDigits(digits, points, scalars, c)
	starts := p256Runs(&reach, c, numWin, workers)
	if workers > len(starts)-1 {
		workers = len(starts) - 1
	}
	// sums[w] = Σᵢ digitᵢ(w)·Pᵢ, summed run by run, lowest run first.
	sums := make([]P256Point, numWin)
	var next atomic.Int32
	sumRuns := func() {
		s := p256RunPool.Get().(*p256Run)
		defer p256RunPool.Put(s)
		for {
			r := int(next.Add(1)) - 1
			if r >= len(starts)-1 {
				return
			}
			w0, w1 := starts[r], starts[r+1]
			s.fill(digits[w0*n:w1*n], n, c)
			s.reduce(points)
			s.collapse(sums[w0:w1], 1<<(c-1))
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sumRuns()
		}()
	}
	sumRuns()
	wg.Wait()
	for w := numWin - 1; w >= 0; w-- {
		for s := uint(0); s < c; s++ {
			acc.Double(&acc)
		}
		acc.Add(&acc, &sums[w])
	}
	return acc
}

// p256WindowLoad bounds the entries window w of width c can hold: the live
// terms with a bit at or above (w−1)·c, since a shorter scalar has neither a
// digit there nor a borrow into it.
func p256WindowLoad(reach *[258]int, c uint, w int) int {
	if w == 0 {
		return reach[1]
	}
	return reach[(w-1)*int(c)+1]
}

// p256Runs cuts the numWin windows into runs of consecutive windows and
// returns the first window of each, then numWin: at least workers runs
// where there are that many windows, of about equal modelled cost (a
// window's fill and its collapse), and no run above p256RunEntries entries
// unless one window is.
func p256Runs(reach *[258]int, c uint, numWin, workers int) []int {
	collapse := (1 << (c - 1)) * (costMixedAdd + costAdd)
	entries, total := 0, 0
	for w := 0; w < numWin; w++ {
		l := p256WindowLoad(reach, c, w)
		entries += l
		total += l*costBucketAdd + collapse
	}
	runs := max(workers, (entries+p256RunEntries-1)/p256RunEntries)
	starts := make([]int, 1, numWin+1)
	load, before := 0, 0 // entries of the open run, cost of the windows before w
	for w := 0; w < numWin; w++ {
		l := p256WindowLoad(reach, c, w)
		cost := l*costBucketAdd + collapse
		// Cut where the half-way point of w passes the next share of the
		// total, or where w would push the run past the budget.
		share := len(starts) * total / runs
		if load > 0 && (2*before+cost > 2*share || load+l > p256RunEntries) {
			starts = append(starts, w)
			load = 0
		}
		load += l
		before += cost
	}
	return append(starts, numWin)
}

// p256SignedDigits writes the signed digits of every term into digits,
// window-major, n = len(points) a window; a point at infinity has none.
// Window values above 2^(c−1) borrow from the next window, so digits lie in
// (−2^(c−1), 2^(c−1)]; the top window absorbs the last borrow.
func p256SignedDigits(digits []int16, points []P256Affine, scalars []fp256.Element, c uint) {
	n := len(points)
	half := int32(1) << (c - 1)
	for i := range points {
		if points[i].inf {
			continue
		}
		k := &scalars[i]
		carry := int32(0)
		for j, w := i, 0; j < len(digits); j, w = j+n, w+1 {
			d := p256WindowBits(k, c, w) + carry
			carry = 0
			if d > half {
				d -= 2 * half
				carry = 1
			}
			digits[j] = int16(d)
		}
		if carry != 0 {
			panic("ec: P256MultiExp scalar overflow")
		}
	}
}

// p256Run is one worker's scratch for a run of windows. The run's terms
// are sorted into their buckets, bucket by bucket and window by window, as
// placements. A round of additions reads a bucket's entries from the
// placements (the first round) or from one of two areas of ents, and
// writes its sums to the other area, into which each sum's slot first
// holds its pair's denominator and prefix product. It comes from
// p256RunPool, and each slice grows to the largest run it has served, at
// most p256RunEntries entries or one window's terms: 4 bytes an entry,
// 64 a first-round sum and 64 a second-round sum, ≈ 52 an entry.
type p256Run struct {
	place []uint32 // term<<1 | 1 if the point goes in negated
	ents  []p256XY
	src   []int32    // per bucket: first placement
	at    [2][]int32 // per bucket: first slot in each area of ents
	cnt   []int32    // per bucket: entries left
	sums  []int32    // per bucket: sums the round writes
	final int        // the area that holds the reduced buckets
}

var p256RunPool = sync.Pool{New: func() any { return new(p256Run) }}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill sorts the run's digits, n terms a window, into their buckets,
// 2^(c−1) a window: bucket w·2^(c−1) + |d|−1 of the run receives ±Pᵢ for
// every digit d = digitᵢ(w) ≠ 0, in term order. A first pass counts each
// bucket's entries, a second places them.
func (s *p256Run) fill(digits []int16, n int, c uint) {
	buckets := len(digits) / n << (c - 1)
	s.src = resize(s.src, buckets)
	s.at[0] = resize(s.at[0], buckets)
	s.at[1] = resize(s.at[1], buckets)
	s.sums = resize(s.sums, buckets)
	s.cnt = resize(s.cnt, buckets)
	clear(s.cnt)
	s.sort(digits, n, c, false)
	var entries, first, second int32 // a bucket of m entries holds ⌈m/2⌉ after one round, ⌈m/4⌉ after two
	for b, m := range s.cnt {
		s.src[b], s.at[0][b], s.at[1][b] = entries, first, second
		entries += m
		first += (m + 1) / 2
		second += (m + 3) / 4
		s.cnt[b] = 0
	}
	for b := range s.at[1] {
		s.at[1][b] += first
	}
	s.place = resize(s.place, int(entries))
	s.ents = resize(s.ents, int(first+second))
	s.sort(digits, n, c, true)
}

// sort counts every nonzero digit in its bucket and, when place is set,
// also writes the term into the bucket's next placement.
func (s *p256Run) sort(digits []int16, n int, c uint, place bool) {
	for lo := 0; lo < len(digits); lo += n {
		first := int32(lo/n) << (c - 1) // the window's bucket for digit 1
		for i, d := range digits[lo : lo+n] {
			if d == 0 {
				continue
			}
			t := uint32(i) << 1
			if d < 0 {
				d, t = -d, t|1
			}
			b := first + int32(d) - 1
			if place {
				s.place[s.src[b]+s.cnt[b]] = t
			}
			s.cnt[b]++
		}
	}
}

// p256WindowBits returns bits [wc, wc+c) of k.
func p256WindowBits(k *fp256.Element, c uint, w int) int32 {
	bit := w * int(c)
	limb := bit / 64
	if limb >= 4 {
		return 0
	}
	off := uint(bit % 64)
	v := k[limb] >> off
	if off+c > 64 && limb+1 < 4 {
		v |= k[limb+1] << (64 - off)
	}
	return int32(v & (1<<c - 1))
}

// entry returns entry i of bucket b in area from of ents, or, from the
// placements (from < 0), the placed point, negated into buf if its digit
// was negative.
func (s *p256Run) entry(buf *p256XY, points []P256Affine, from, b, i int) *p256XY {
	if from >= 0 {
		return &s.ents[int(s.at[from][b])+i]
	}
	t := s.place[int(s.src[b])+i]
	p := &points[t>>1].p256XY
	if t&1 == 0 {
		return p
	}
	buf.x = p.x
	fp.Neg(&buf.y, &p.y)
	return buf
}

// reduce adds up every bucket until each holds at most one point, in area
// s.final of ents. A round adds a bucket's entries in pairs (0+1, 2+3, …;
// an odd last one is carried over) and writes the sums to the area it does
// not read; the denominators of all the run's pairs share one inversion
// (Montgomery's trick). A pair on one x is a doubling, whose denominator
// is 2y (P-256 has no point of order two), or a point and its negation,
// which cancel.
func (s *p256Run) reduce(points []P256Affine) {
	one := fp.One()
	var pb, qb p256XY
	var acc, inv, t, lam fp256.Element
	for from := -1; ; {
		to := (from + 1) % 2
		// Each pair's denominator goes to its sum's slot (x), beside the
		// product of the ones before it (y).
		pairs, dens := 0, 0
		acc = one
		for b, m := range s.cnt {
			out := s.ents[s.at[to][b]:]
			w := int32(0)
			for i := 1; i < int(m); i += 2 {
				p := s.entry(&pb, points, from, b, i-1)
				q := s.entry(&qb, points, from, b, i)
				pairs++
				o := &out[w]
				if p.x.Equal(&q.x) {
					if !p.y.Equal(&q.y) {
						continue
					}
					fp.Double(&o.x, &p.y)
				} else {
					fp.Sub(&o.x, &q.x, &p.x)
				}
				o.y = acc
				fp.Mul(&acc, &acc, &o.x)
				w++
			}
			s.sums[b] = w
			dens += int(w)
		}
		if pairs == 0 && from >= 0 {
			s.final = from
			return
		}
		// One inversion, then every denominator's inverse in its place.
		if dens > 0 {
			fp.Inv(&inv, &acc)
		}
		for b := len(s.cnt) - 1; b >= 0; b-- {
			out := s.ents[s.at[to][b]:]
			for w := s.sums[b] - 1; w >= 0; w-- {
				o := &out[w]
				fp.Mul(&t, &inv, &o.y)
				fp.Mul(&inv, &inv, &o.x)
				o.x = t
			}
		}
		// The sums: λ = (y_q − y_p)/(x_q − x_p), or 3(x² − 1)/2y for a
		// doubling; x = λ² − x_p − x_q, y = λ(x_p − x) − y_p.
		for b, m := range s.cnt {
			out := s.ents[s.at[to][b]:]
			w := 0
			for i := 1; i < int(m); i += 2 {
				p := s.entry(&pb, points, from, b, i-1)
				q := s.entry(&qb, points, from, b, i)
				if p.x.Equal(&q.x) {
					if !p.y.Equal(&q.y) {
						continue
					}
					fp.Sqr(&t, &p.x)
					fp.Sub(&t, &t, &one)
					fp.Double(&lam, &t)
					fp.Add(&t, &t, &lam)
				} else {
					fp.Sub(&t, &q.y, &p.y)
				}
				o := &out[w]
				fp.Mul(&lam, &t, &o.x)
				fp.Sqr(&o.x, &lam)
				fp.Sub(&o.x, &o.x, &p.x)
				fp.Sub(&o.x, &o.x, &q.x)
				fp.Sub(&t, &p.x, &o.x)
				fp.Mul(&o.y, &lam, &t)
				fp.Sub(&o.y, &o.y, &p.y)
				w++
			}
			if m%2 == 1 {
				out[w] = *s.entry(&pb, points, from, b, int(m)-1)
				w++
			}
			s.cnt[b] = int32(w)
		}
		from = to
	}
}

// collapse turns each window's reduced buckets into its sum,
// Σ_b (b+1)·bucket_b, by a running suffix sum from the top bucket down.
func (s *p256Run) collapse(sums []P256Point, buckets int) {
	var run, sum P256Point
	var a P256Affine
	for w := range sums {
		run.SetInfinity()
		sum.SetInfinity()
		for b := w*buckets + buckets - 1; b >= w*buckets; b-- {
			if s.cnt[b] != 0 {
				a.p256XY = s.ents[s.at[s.final][b]]
				run.AddAffine(&run, &a)
			}
			sum.Add(&sum, &run)
		}
		sums[w] = sum
	}
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

// --- encoding (identical bytes to crypto/elliptic's compressed form) ---

// Encode writes the canonical 33-byte compressed encoding (sign byte ‖ X)
// into out; the identity is all zeros. The finite points encode as
// crypto/elliptic's MarshalCompressed does.
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
// rejecting wrong length, unknown prefix, non-canonical X (≥ p), X not on
// the curve and malformed identity padding.
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

// P256HashToPoint maps bytes to a curve point by try-and-increment: x is
// H(domain, msg, ctr) reduced mod p, the parity of y is the digest's last
// bit, and y is the square root p256Decode takes; a counter whose x has no
// point (x³ − 3x + b a non-residue, about half of them) is skipped. h must
// return 32-byte digests. Nobody knows the discrete log of the output to
// G, which is what the second Pedersen generator needs.
func P256HashToPoint(h func(data ...[]byte) []byte, domain string, msg []byte) P256Affine {
	var zero fp256.Element
	var enc [33]byte
	for ctr := uint8(0); ; ctr++ {
		digest := h([]byte(domain), msg, []byte{ctr})
		x := fp256.LimbsFromBytes(digest)
		fp.Add(&x, &x, &zero) // x < 2²⁵⁶ < 2p: one conditional subtraction reduces it
		enc[0] = 0x02 | digest[31]&1
		x.PutBytes(enc[1:])
		if a, err := p256Decode(enc[:], nil); err == nil {
			return a
		}
	}
}
