// Package transcript implements a domain-separated Fiat-Shamir transcript.
//
// All non-interactive Σ-protocols in this repository (Appendix C of the
// paper, made non-interactive via the Fiat-Shamir transform "secure in the
// random oracle model") derive verifier challenges by hashing a transcript
// of every public value exchanged so far. The transcript is a running
// SHA-256 state with unambiguous framing: each appended message is preceded
// by a length-prefixed label and a length prefix for the payload, so no two
// distinct message sequences collide byte-wise.
package transcript

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/field"
)

// Transcript accumulates labeled protocol messages and produces challenges.
// A Transcript is not safe for concurrent use; protocol code constructs one
// per proof.
type Transcript struct {
	state [32]byte
	n     uint64 // messages absorbed, mixed into every absorption
}

// New creates a transcript bound to a protocol-level domain separation
// string. Distinct protocols (OR proofs, Schnorr proofs, client validation)
// use distinct domains so a proof generated in one context can never verify
// in another.
func New(domain string) *Transcript {
	t := &Transcript{}
	t.state = sha256.Sum256([]byte("vdp/transcript/v1/" + domain))
	return t
}

// Append absorbs a labeled message.
func (t *Transcript) Append(label string, msg []byte) {
	h := sha256.New()
	h.Write(t.state[:])
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], t.n)
	h.Write(hdr[:])
	binary.BigEndian.PutUint64(hdr[:], uint64(len(label)))
	h.Write(hdr[:])
	h.Write([]byte(label))
	binary.BigEndian.PutUint64(hdr[:], uint64(len(msg)))
	h.Write(hdr[:])
	h.Write(msg)
	copy(t.state[:], h.Sum(nil))
	t.n++
}

// Challenge squeezes a challenge scalar in Z_q for the supplied field. The
// squeeze also mutates the state, so successive challenges are independent.
func (t *Transcript) Challenge(label string, f *field.Field) *field.Element {
	// Absorb the squeeze label, then expand enough output for negligible
	// reduction bias: 128 extra bits beyond the field size.
	t.Append("challenge/"+label, nil)
	need := f.ByteLen() + 16
	var out []byte
	var ctr [8]byte
	for block := uint64(0); len(out) < need; block++ {
		h := sha256.New()
		h.Write(t.state[:])
		binary.BigEndian.PutUint64(ctr[:], block)
		h.Write(ctr[:])
		out = append(out, h.Sum(nil)...)
	}
	return f.Reduce(out[:need])
}
