package field

import "math/big"

// Double, Inv and Exp: field operations no program uses. The law tests in
// field_test.go still hold them to the field's definition.

// Double returns 2e mod q.
func (e *Element) Double() *Element { return e.Add(e) }

// Inv returns the multiplicative inverse of e. It panics on zero, which has
// no inverse.
func (e *Element) Inv() *Element {
	if e.IsZero() {
		panic("field: inverse of zero")
	}
	n := new(big.Int).ModInverse(e.n, e.fld.q)
	return e.fld.newElement(n)
}

// Exp returns e^k mod q for a non-negative big integer exponent. Negative
// exponents are interpreted as (e^-1)^|k|.
func (e *Element) Exp(k *big.Int) *Element {
	if k.Sign() < 0 {
		inv := e.Inv()
		return e.fld.newElement(new(big.Int).Exp(inv.n, new(big.Int).Neg(k), e.fld.q))
	}
	return e.fld.newElement(new(big.Int).Exp(e.n, k, e.fld.q))
}
