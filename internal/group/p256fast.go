package group

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/ec"
	"repro/internal/field"
	"repro/internal/fp256"
)

var (
	p256Once sync.Once
	p256Std  *fastP256
)

// P256 returns the shared NIST P-256 commitment group. It stands in for the
// paper's Ristretto/Curve25519 deployment (see DESIGN.md Substitutions):
// both are prime-order elliptic-curve groups with 256-bit scalars.
//
// The returned group runs on the fp256 fixed-width Montgomery backend. The
// differential tests in p256fast_test.go hold it to byte-identical
// encodings and transcripts with P256Generic, the reference implementation
// of the same group (on crypto/elliptic's arithmetic) in ecgroup_test.go.
func P256() Group {
	p256Once.Do(func() {
		p256Std = newFastP256()
	})
	return p256Std
}

// fastP256 is the accelerated P-256 commitment group: the same abstract
// group as the reference (same generators, same canonical encodings, same
// scalar field), evaluated with the fixed-width Montgomery
// arithmetic of internal/fp256 and the in-place Jacobian point type of
// internal/ec. Because Encode/Decode and HashToElement are byte-identical
// to the reference, every transcript, digest, and stored bulletin-board
// record is unchanged by the backend swap — only the time and allocation
// profile differs. See ARCHITECTURE.md "Arithmetic backends".
//
// Beyond the plain Group interface, fastP256 implements the optional
// acceleration interfaces consumed by pedersen, MultiExpParallel and the
// batch verifiers: FixedBasePowers (fused table-based g^x·h^r),
// NativeMultiExp (Pippenger bucket multi-exponentiation on raw points) and
// BatchNormalizer (one inversion for a batch of elements about to be
// encoded).
type fastP256 struct {
	name    string
	curve   *ec.Curve // reference curve: scalar field, hash-to-point, setup
	gTbl    *ec.P256Table
	hTbl    *ec.P256Table
	g, h    *fastElem
	id      *fastElem
	byteLen int
}

// fastElem is an element of fastP256: a Jacobian point plus a lazily
// normalized affine form. Elements are immutable after construction
// (the affine cache is filled at most once, under sync.Once, so sharing
// across a worker pool's goroutines is race-free). Construction sites that
// already know the affine form fire the Once immediately, making Encode
// free for decoded wire elements.
type fastElem struct {
	g       *fastP256
	jac     ec.P256Point
	once    sync.Once
	aff     ec.P256Affine
	affDone atomic.Bool // set inside once.Do, read by normalized
}

func (e *fastElem) String() string {
	var b [33]byte
	e.affine().Encode(b[:])
	return fmt.Sprintf("%s(%x…)", e.g.name, b[:9])
}

// affine returns the normalized form, computing it on first use (one
// field inversion) and caching it for every later Encode/parity read.
func (e *fastElem) affine() *ec.P256Affine {
	e.once.Do(e.fillAffine)
	return &e.aff
}

func (e *fastElem) fillAffine() {
	e.aff = e.jac.ToAffine()
	e.affDone.Store(true)
}

// setAffineCache publishes a known affine form without an inversion.
func (e *fastElem) setAffineCache(a ec.P256Affine) {
	e.once.Do(func() {
		e.aff = a
		e.affDone.Store(true)
	})
}

// normalized reports whether the affine form has been computed already.
// The flag is stored inside the Once after aff is written, so a true load
// guarantees aff is fully published.
func (e *fastElem) normalized() bool { return e.affDone.Load() }

// newJac wraps a Jacobian point (affine form computed lazily).
func (g *fastP256) newJac(p *ec.P256Point) *fastElem {
	e := &fastElem{g: g}
	e.jac.Set(p)
	return e
}

// newAffine wraps a known-affine point, pre-firing the normalization.
func (g *fastP256) newAffine(a ec.P256Affine) *fastElem {
	e := &fastElem{g: g}
	e.jac.SetAffine(&a)
	e.setAffineCache(a)
	return e
}

// newFastP256 builds the accelerated group over the shared reference
// curve: generators and their fixed-base tables are derived once (the
// alternate generator h comes from the same nothing-up-my-sleeve
// hash-to-point as the reference backend, so parameters are identical).
func newFastP256() *fastP256 {
	curve := ec.StdP256()
	g := &fastP256{name: "p256", curve: curve, byteLen: 1 + curve.CoordinateField().ByteLen()}

	var id ec.P256Point
	id.SetInfinity()
	g.id = g.newAffine(id.ToAffine())

	gen := ec.P256Generator()
	g.g = g.newAffine(gen.ToAffine())
	hPoint := curve.HashToPoint(shaConcat, g.name+"/pedersen-h/v1", curve.Encode(curve.Generator()))
	hAff, err := ec.P256AffineFromPoint(hPoint)
	if err != nil {
		panic("group: deriving fast h: " + err.Error())
	}
	g.h = g.newAffine(hAff)

	g.gTbl = ec.NewP256Table(&gen)
	var hJac ec.P256Point
	hJac.SetAffine(&hAff)
	g.hTbl = ec.NewP256Table(&hJac)
	return g
}

func (g *fastP256) Name() string              { return g.name }
func (g *fastP256) ScalarField() *field.Field { return g.curve.ScalarField() }
func (g *fastP256) Generator() Element        { return g.g }
func (g *fastP256) AltGenerator() Element     { return g.h }
func (g *fastP256) Identity() Element         { return g.id }
func (g *fastP256) ElementLen() int           { return g.byteLen }

func (g *fastP256) elem(x Element) *fastElem {
	el, ok := x.(*fastElem)
	if !ok || el.g != g {
		panic("group: element does not belong to this EC group")
	}
	return el
}

func (g *fastP256) Op(a, b Element) Element {
	ea, eb := g.elem(a), g.elem(b)
	r := &fastElem{g: g}
	r.jac.Add(&ea.jac, &eb.jac)
	return r
}

func (g *fastP256) Inv(a Element) Element {
	ea := g.elem(a)
	r := &fastElem{g: g}
	r.jac.Neg(&ea.jac)
	return r
}

// scalarLimbs converts a canonical scalar-field element to plain limbs
// for the wNAF/table/Pippenger digit machinery, without heap allocation.
func scalarLimbs(k *field.Element) fp256.Element {
	var buf [32]byte
	k.PutBytes(buf[:])
	return fp256.LimbsFromBytes(buf[:])
}

func (g *fastP256) Exp(a Element, k *field.Element) Element {
	ea := g.elem(a)
	limbs := scalarLimbs(k)
	r := &fastElem{g: g}
	// Fixed-base acceleration also for generic callers that exponentiate
	// the generators through the plain Group interface.
	switch ea {
	case g.g:
		g.gTbl.Mul(&r.jac, limbs)
	case g.h:
		g.hTbl.Mul(&r.jac, limbs)
	default:
		r.jac.ScalarMult(&ea.jac, limbs)
	}
	return r
}

func (g *fastP256) Equal(a, b Element) bool {
	return g.elem(a).jac.Equal(&g.elem(b).jac)
}

func (g *fastP256) Encode(a Element) []byte {
	out := make([]byte, 33)
	g.elem(a).affine().Encode(out)
	return out
}

func (g *fastP256) Decode(b []byte) (Element, error) {
	a, err := ec.P256DecodeAffine(b)
	if err != nil {
		return nil, fmt.Errorf("group: %s: %w", g.name, err)
	}
	return g.newAffine(a), nil
}

func (g *fastP256) HintLen() int { return 32 }

func (g *fastP256) AppendHint(dst []byte, a Element) []byte {
	return g.elem(a).affine().AppendY(dst)
}

func (g *fastP256) DecodeHinted(b, hint []byte) (Element, error) {
	a, err := ec.P256DecodeHinted(b, hint)
	if err != nil {
		return nil, fmt.Errorf("group: %s: %w", g.name, err)
	}
	return g.newAffine(a), nil
}

func (g *fastP256) HashToElement(domain string, msg []byte) Element {
	p := g.curve.HashToPoint(shaConcat, g.name+"/"+domain, msg)
	a, err := ec.P256AffineFromPoint(p)
	if err != nil {
		panic("group: hash-to-point off the shared curve: " + err.Error())
	}
	return g.newAffine(a)
}

func (g *fastP256) RandomScalar(r io.Reader) (*field.Element, error) {
	return g.curve.ScalarField().Rand(r)
}

// --- optional acceleration interfaces ---

// FixedBasePowers is implemented by groups with native fixed-base
// acceleration for their two Pedersen generators. pedersen.Params
// delegates to it instead of building generic Precomp tables.
type FixedBasePowers interface {
	// ExpAltGenerator returns h^k.
	ExpAltGenerator(k *field.Element) Element
	// CommitGenerators returns g^x · h^r as one fused evaluation.
	CommitGenerators(x, r *field.Element) Element
}

// NativeMultiExp is implemented by groups with a backend-native
// multi-exponentiation; MultiExpParallel dispatches to it before any
// generic strategy.
type NativeMultiExp interface {
	// MultiExpNative computes Π bases[i]^{exps[i]} on up to workers
	// goroutines (the caller's included; workers ≥ 1).
	MultiExpNative(bases []Element, exps []*field.Element, workers int) Element
}

// BatchNormalizer is implemented by groups whose elements reach their
// canonical form through a per-element inversion that a batch can share.
type BatchNormalizer interface {
	// NormalizeBatch gives every element its canonical form, so the
	// Encode of each is free afterwards.
	NormalizeBatch(elems []Element)
}

// NormalizeBatch prepares elems for encoding at the cost of one inversion
// for all of them on groups that implement BatchNormalizer; elsewhere
// (Schnorr2048 elements are always canonical) it does nothing.
func NormalizeBatch(g Group, elems []Element) {
	if bn, ok := g.(BatchNormalizer); ok {
		bn.NormalizeBatch(elems)
	}
}

func (g *fastP256) ExpAltGenerator(k *field.Element) Element {
	r := &fastElem{g: g}
	g.hTbl.Mul(&r.jac, scalarLimbs(k))
	return r
}

func (g *fastP256) CommitGenerators(x, rx *field.Element) Element {
	r := &fastElem{g: g}
	r.jac.SetInfinity()
	g.gTbl.AddMul(&r.jac, scalarLimbs(x))
	g.hTbl.AddMul(&r.jac, scalarLimbs(rx))
	return r
}

// NormalizeBatch implements BatchNormalizer: every element still held in
// Jacobian form only gets its affine form with one shared inversion
// (Montgomery's trick) instead of one per element, cached on the element
// for every later Encode and multi-exponentiation.
func (g *fastP256) NormalizeBatch(elems []Element) {
	var pending []ec.P256Point
	var owners []*fastElem
	for _, b := range elems {
		if e := g.elem(b); !e.normalized() {
			pending = append(pending, e.jac)
			owners = append(owners, e)
		}
	}
	if len(pending) == 0 {
		return
	}
	norm := make([]ec.P256Affine, len(pending))
	ec.P256BatchAffine(norm, pending)
	for j, e := range owners {
		e.setAffineCache(norm[j])
	}
}

// nativeTerms is MultiExpNative's copy of a product's terms in the
// backend's form, pooled so a steady stream of products reuses it.
type nativeTerms struct {
	points  []ec.P256Affine
	scalars []fp256.Element
}

var nativeTermsPool = sync.Pool{New: func() any { return new(nativeTerms) }}

func (g *fastP256) MultiExpNative(bases []Element, exps []*field.Element, workers int) Element {
	if len(bases) != len(exps) {
		panic("group: MultiExpNative length mismatch")
	}
	n := len(bases)
	t := nativeTermsPool.Get().(*nativeTerms)
	defer nativeTermsPool.Put(t)
	if cap(t.points) < n {
		t.points = make([]ec.P256Affine, n)
		t.scalars = make([]fp256.Element, n)
	}
	points, scalars := t.points[:n], t.scalars[:n]
	g.NormalizeBatch(bases)
	for i, b := range bases {
		points[i] = *g.elem(b).affine()
		scalars[i] = scalarLimbs(exps[i])
	}
	res := ec.P256MultiExp(points, scalars, workers)
	return g.newJac(&res)
}
