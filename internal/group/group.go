// Package group abstracts the prime-order abelian groups underlying the
// Pedersen commitment scheme (Definition 3 of the paper).
//
// The paper evaluates two instantiations: a Schnorr subgroup G_q ⊂ Z*_p
// based on the finite-field discrete log problem, and an elliptic curve
// group (Ristretto over Curve25519 in the authors' implementation; NIST
// P-256 here, see EXPERIMENTS.md § "§6 microbenchmark" and ARCHITECTURE.md
// § Arithmetic backends). Both are exposed behind the
// Group interface so commitments, Σ-protocols, and the ΠBin protocol are
// generic over the hardness assumption, and the §6 microbenchmark comparing
// the two stacks falls out of benchmarking Exp on each implementation.
//
// All groups are written multiplicatively, matching the paper's notation
// Com(x, r) = g^x · h^r: Op is the group operation, Exp is repeated
// application. The scalar field of the group is the prime field Z_q for the
// group order q; it doubles as the message and randomness space of the
// commitment scheme (Mpp = Rpp = Z_q).
package group

import (
	"crypto/sha256"
	"fmt"
	"io"

	"repro/internal/field"
)

// Element is an opaque group element. Implementations are immutable and safe
// for concurrent use. Elements from different groups must never be mixed;
// implementations panic on mixing, as that is always a programming error.
type Element interface {
	// fmt.Stringer for diagnostics.
	String() string
}

// Group is a cyclic group of prime order q with two generators g and h whose
// relative discrete log is unknown (h is derived by hashing, "nothing up my
// sleeve"), as required by the binding property of Pedersen commitments.
type Group interface {
	// Name identifies the instantiation, e.g. "schnorr2048" or "p256".
	Name() string
	// ScalarField returns Z_q where q is the group order.
	ScalarField() *field.Field
	// Generator returns the standard generator g.
	Generator() Element
	// AltGenerator returns the independent second generator h.
	AltGenerator() Element
	// Identity returns the neutral element.
	Identity() Element
	// Op returns a∘b.
	Op(a, b Element) Element
	// Inv returns the inverse of a.
	Inv(a Element) Element
	// Exp returns a^k.
	Exp(a Element, k *field.Element) Element
	// Equal reports whether two elements are equal.
	Equal(a, b Element) bool
	// Encode returns the canonical fixed-width encoding of a.
	Encode(a Element) []byte
	// Decode parses a canonical encoding, validating group membership.
	Decode(b []byte) (Element, error)
	// ElementLen returns the fixed encoding width in bytes.
	ElementLen() int
	// HintLen returns the width of an element's decode hint: the part of
	// the element its encoding leaves for Decode to recover (the y
	// coordinate of a compressed P-256 point, 32 bytes; nothing, 0, for
	// schnorr2048).
	HintLen() int
	// AppendHint appends a's decode hint to dst.
	AppendHint(dst []byte, a Element) []byte
	// DecodeHinted is Decode given the element's hint, which it checks
	// instead of recovering what it carries: it accepts exactly when Decode
	// accepts b and hint is that element's hint, and yields the same
	// element.
	DecodeHinted(b, hint []byte) (Element, error)
	// HashToElement maps a domain-separated message to a group element with
	// unknown discrete log relative to both generators.
	HashToElement(domain string, msg []byte) Element
	// RandomScalar samples a uniform exponent; nil reader means crypto/rand.
	RandomScalar(r io.Reader) (*field.Element, error)
}

// Decoder reads group elements from their encodings: a Group itself, or a
// Hinted run.
type Decoder interface {
	Decode(b []byte) (Element, error)
}

// Hinted decodes a run of elements whose hints are laid out apart from
// them, HintLen bytes each in the order the elements are decoded: each
// Decode takes the next hint and hands both to DecodeHinted.
type Hinted struct {
	G     Group
	Hints []byte // the hints not yet taken
	// N is the index of the next element in its hint section: the elements
	// decoded so far, plus — for a run that starts mid-section — the ones
	// before its first. Errors name elements by it.
	N int
}

// Decode decodes the next element of the run.
func (h *Hinted) Decode(b []byte) (Element, error) {
	w := h.G.HintLen()
	if len(h.Hints) < w {
		return nil, fmt.Errorf("group: %s: hint section ends at element %d", h.G.Name(), h.N)
	}
	hint := h.Hints[:w:w]
	h.Hints = h.Hints[w:]
	h.N++
	return h.G.DecodeHinted(b, hint)
}

// Finish refuses hints left over after the run's last element.
func (h *Hinted) Finish() error {
	if len(h.Hints) != 0 {
		return fmt.Errorf("group: %s: %d hint bytes left after %d elements", h.G.Name(), len(h.Hints), h.N)
	}
	return nil
}

// shaConcat hashes the concatenation of the given byte strings with SHA-256,
// the hash used throughout for Fiat-Shamir and generator derivation.
func shaConcat(data ...[]byte) []byte {
	h := sha256.New()
	for _, d := range data {
		h.Write(d)
	}
	return h.Sum(nil)
}
