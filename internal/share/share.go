// Package share implements linear secret sharing over a prime field Z_q.
//
// The ΠBin protocol (Section 4 of the paper) has clients split each input
// x_i into K additive shares ⟦x_i⟧_1, ..., ⟦x_i⟧_K with
// Σ_k ⟦x_i⟧_k = x_i, one per prover. Footnote 4 notes that "any linear
// secret sharing such as Shamir's secret sharing also applies to all our
// results"; the protocol uses the additive scheme, and it is the one here.
package share

import (
	"fmt"
	"io"

	"repro/internal/field"
)

// Additive splits secret x into n shares that sum to x: the first n-1 are
// uniform, the last is x minus their sum. Any n-1 shares are jointly uniform
// and reveal nothing about x (information-theoretic hiding).
func Additive(x *field.Element, n int, rnd io.Reader) ([]*field.Element, error) {
	if n < 1 {
		return nil, fmt.Errorf("share: need at least 1 share, got %d", n)
	}
	f := x.Field()
	shares := make([]*field.Element, n)
	sum := f.Zero()
	for k := 0; k < n-1; k++ {
		s, err := f.Rand(rnd)
		if err != nil {
			return nil, fmt.Errorf("share: %w", err)
		}
		shares[k] = s
		sum = sum.Add(s)
	}
	shares[n-1] = x.Sub(sum)
	return shares, nil
}
