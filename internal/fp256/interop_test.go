package fp256

import "math/big"

// Test-side interop with math/big, the reference the field tests compare
// against, and the scalar modulus, which only the tests use.

// nMod is the scalar field modulus, the P-256 group order: the generic
// (non-kernel) arithmetic's second test modulus.
var nMod = newModulus("p256-n", "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", false)

// N returns the scalar field modulus.
func N() *Modulus { return nMod }

// Name identifies the modulus in diagnostics.
func (md *Modulus) Name() string { return md.name }

// Big returns a copy of the modulus as a big.Int (for tests and setup-time
// interop with the math/big backend; not used on hot paths).
func (md *Modulus) Big() *big.Int { return new(big.Int).Set(md.bigM) }

// ToBig returns the plain value of a Montgomery-form element (tests only).
func (md *Modulus) ToBig(x *Element) *big.Int {
	var b [32]byte
	md.Bytes(x, b[:])
	return new(big.Int).SetBytes(b[:])
}

// FromBig reduces a big.Int into Montgomery form.
func (md *Modulus) FromBig(v *big.Int) Element {
	var z Element
	r := limbsFromBig(new(big.Int).Mod(v, md.bigM))
	md.ToMont(&z, &r)
	return z
}
