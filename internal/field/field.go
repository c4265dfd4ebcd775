// Package field implements arithmetic in prime-order finite fields Z_q.
//
// The package provides an immutable Element type bound to a Field (the
// modulus). All operations return fresh elements and never mutate their
// operands, which makes elements safe to share across goroutines and to use
// as map keys via their fixed-width byte encoding.
//
// The verifiable differential privacy protocols in this repository use two
// fields: the scalar field of the commitment group (exponents, message and
// randomness spaces of Pedersen commitments, Definition 3 of the paper) and,
// for the elliptic-curve group, the coordinate field of the curve.
package field

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// ErrNotPrime is returned by New when the proposed modulus fails a
// probabilistic primality test.
var ErrNotPrime = errors.New("field: modulus is not prime")

// ErrMismatch is returned (via panic recovery helpers) or produced when two
// elements of different fields are combined.
var ErrMismatch = errors.New("field: elements belong to different fields")

// Field represents the prime field Z_q for a prime modulus q. A Field value
// is immutable after construction and safe for concurrent use.
type Field struct {
	q       *big.Int // modulus, prime
	byteLen int      // fixed encoding width
	bitLen  int
	zero    *Element
	one     *Element
}

// New constructs the field Z_q. The modulus must be an odd prime of at least
// 3 bits; primality is checked with 64 Miller-Rabin rounds (plus the
// Baillie-PSW test performed by math/big), so accepting a composite modulus
// has negligible probability for adversarially chosen inputs of the sizes
// used here.
func New(q *big.Int) (*Field, error) {
	if q == nil || q.Sign() <= 0 {
		return nil, errors.New("field: modulus must be positive")
	}
	if q.BitLen() < 3 {
		return nil, errors.New("field: modulus too small")
	}
	if !q.ProbablyPrime(64) {
		return nil, ErrNotPrime
	}
	return NewKnownPrime(q), nil
}

// NewKnownPrime constructs Z_q for a literal modulus whose primality the
// caller's tests assert, without New's run-time checks: the primality test
// costs a process about 1.4 ms for a 256-bit modulus.
func NewKnownPrime(q *big.Int) *Field {
	f := &Field{
		q:       new(big.Int).Set(q),
		byteLen: (q.BitLen() + 7) / 8,
		bitLen:  q.BitLen(),
	}
	f.zero = f.newElement(big.NewInt(0))
	f.one = f.newElement(big.NewInt(1))
	return f
}

// Modulus returns a copy of the field modulus q.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.q) }

// BitLen returns the bit length of the modulus.
func (f *Field) BitLen() int { return f.bitLen }

// ByteLen returns the fixed width, in bytes, of element encodings.
func (f *Field) ByteLen() int { return f.byteLen }

// Equal reports whether two fields have the same modulus.
func (f *Field) Equal(g *Field) bool {
	if f == g {
		return true
	}
	if f == nil || g == nil {
		return false
	}
	return f.q.Cmp(g.q) == 0
}

// String implements fmt.Stringer.
func (f *Field) String() string {
	return fmt.Sprintf("GF(q) with %d-bit q", f.bitLen)
}

// newElement wraps v (assumed already reduced mod q) without copying.
func (f *Field) newElement(v *big.Int) *Element {
	return &Element{fld: f, n: v}
}

// Zero returns the additive identity.
func (f *Field) Zero() *Element { return f.zero }

// One returns the multiplicative identity.
func (f *Field) One() *Element { return f.one }

// FromInt64 reduces v into the field.
func (f *Field) FromInt64(v int64) *Element {
	n := big.NewInt(v)
	n.Mod(n, f.q)
	return f.newElement(n)
}

// FromBig reduces v into the field. The argument is not retained.
func (f *Field) FromBig(v *big.Int) *Element {
	n := new(big.Int).Mod(v, f.q)
	return f.newElement(n)
}

// FromBytes decodes a fixed-width big-endian encoding produced by
// Element.Bytes. It rejects encodings of the wrong length or encodings whose
// value is >= q, so the mapping between field elements and their canonical
// encodings is a bijection.
func (f *Field) FromBytes(b []byte) (*Element, error) {
	if len(b) != f.byteLen {
		return nil, fmt.Errorf("field: encoding has %d bytes, want %d", len(b), f.byteLen)
	}
	n := new(big.Int).SetBytes(b)
	if n.Cmp(f.q) >= 0 {
		return nil, errors.New("field: encoding is not canonical (value >= modulus)")
	}
	return f.newElement(n), nil
}

// Reduce interprets arbitrary bytes as a big-endian integer reduced mod q.
// Unlike FromBytes it never fails; it is used to map hash outputs into the
// field (with the usual negligible bias for moduli close to a power of two).
func (f *Field) Reduce(b []byte) *Element {
	n := new(big.Int).SetBytes(b)
	n.Mod(n, f.q)
	return f.newElement(n)
}

// Rand returns a uniformly random field element read from r. If r is nil,
// crypto/rand.Reader is used.
func (f *Field) Rand(r io.Reader) (*Element, error) {
	if r == nil {
		r = rand.Reader
	}
	n, err := rand.Int(r, f.q)
	if err != nil {
		return nil, fmt.Errorf("field: sampling random element: %w", err)
	}
	return f.newElement(n), nil
}

// MustRand is like Rand but panics on error. Randomness failures from the
// operating system CSPRNG are not recoverable at the protocol layer.
func (f *Field) MustRand(r io.Reader) *Element {
	e, err := f.Rand(r)
	if err != nil {
		panic(err)
	}
	return e
}

// Sum returns the sum of all elements; Sum() of nothing is zero.
func (f *Field) Sum(xs ...*Element) *Element {
	acc := new(big.Int)
	for _, x := range xs {
		f.check(x)
		acc.Add(acc, x.n)
	}
	acc.Mod(acc, f.q)
	return f.newElement(acc)
}

func (f *Field) check(x *Element) {
	if x == nil || !f.Equal(x.fld) {
		panic(ErrMismatch)
	}
}

// Element is an immutable element of a prime field. The zero value is not
// usable; elements are created through Field constructors and operations.
type Element struct {
	fld *Field
	n   *big.Int // canonical representative in [0, q)
}

// Field returns the field the element belongs to.
func (e *Element) Field() *Field { return e.fld }

// BigInt returns a copy of the canonical representative in [0, q).
func (e *Element) BigInt() *big.Int { return new(big.Int).Set(e.n) }

// Int64 returns the representative as an int64 when it fits, for small test
// values; ok is false when the value exceeds math.MaxInt64.
func (e *Element) Int64() (v int64, ok bool) {
	if !e.n.IsInt64() {
		return 0, false
	}
	return e.n.Int64(), true
}

// Bytes returns the canonical fixed-width big-endian encoding.
func (e *Element) Bytes() []byte {
	return e.n.FillBytes(make([]byte, e.fld.byteLen))
}

// PutBytes writes the canonical fixed-width big-endian encoding into dst,
// which must have length ByteLen. It is the allocation-free form of Bytes
// used by the fast arithmetic backends to extract scalar limbs on hot
// paths.
func (e *Element) PutBytes(dst []byte) {
	if len(dst) != e.fld.byteLen {
		panic("field: PutBytes destination has wrong length")
	}
	e.n.FillBytes(dst)
}

// String implements fmt.Stringer with a short decimal or hex form.
func (e *Element) String() string {
	if e.n.BitLen() <= 64 {
		return e.n.String()
	}
	s := e.n.Text(16)
	return "0x" + s[:8] + "…" + s[len(s)-8:]
}

// IsZero reports whether e is the additive identity.
func (e *Element) IsZero() bool { return e.n.Sign() == 0 }

// IsOne reports whether e is the multiplicative identity.
func (e *Element) IsOne() bool { return e.n.Cmp(e.fld.one.n) == 0 }

// Equal reports whether two elements are equal (and of the same field).
func (e *Element) Equal(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	return e.fld.Equal(o.fld) && e.n.Cmp(o.n) == 0
}

// Add returns e + o mod q.
func (e *Element) Add(o *Element) *Element {
	e.fld.check(o)
	n := new(big.Int).Add(e.n, o.n)
	if n.Cmp(e.fld.q) >= 0 {
		n.Sub(n, e.fld.q)
	}
	return e.fld.newElement(n)
}

// Sub returns e - o mod q.
func (e *Element) Sub(o *Element) *Element {
	e.fld.check(o)
	n := new(big.Int).Sub(e.n, o.n)
	if n.Sign() < 0 {
		n.Add(n, e.fld.q)
	}
	return e.fld.newElement(n)
}

// Neg returns -e mod q.
func (e *Element) Neg() *Element {
	if e.n.Sign() == 0 {
		return e
	}
	return e.fld.newElement(new(big.Int).Sub(e.fld.q, e.n))
}

// Mul returns e * o mod q.
func (e *Element) Mul(o *Element) *Element {
	e.fld.check(o)
	n := new(big.Int).Mul(e.n, o.n)
	n.Mod(n, e.fld.q)
	return e.fld.newElement(n)
}

// Square returns e^2 mod q.
func (e *Element) Square() *Element { return e.Mul(e) }

// Bit returns the i'th bit of the canonical representative.
func (e *Element) Bit(i int) uint { return e.n.Bit(i) }

// Sign-like helper: IsHigh reports whether the representative exceeds
// ceil(q/2), the thresholding rule used by the Morra protocol (Algorithm 1)
// to turn a uniform field element into a coin.
func (e *Element) IsHigh() bool {
	half := new(big.Int).Rsh(e.fld.q, 1) // floor(q/2); q odd so ceil = floor+1
	return e.n.Cmp(half) > 0
}

// InnerProduct returns sum_i a_i*b_i. The slices must have equal length.
func InnerProduct(a, b []*Element) *Element {
	if len(a) != len(b) {
		panic("field: InnerProduct length mismatch")
	}
	if len(a) == 0 {
		panic("field: InnerProduct of empty vectors")
	}
	f := a[0].fld
	acc := new(big.Int)
	tmp := new(big.Int)
	for i := range a {
		f.check(a[i])
		f.check(b[i])
		tmp.Mul(a[i].n, b[i].n)
		acc.Add(acc, tmp)
	}
	acc.Mod(acc, f.q)
	return f.newElement(acc)
}
