// Package dp implements the differential privacy machinery of the paper:
// the Binomial mechanism (Lemma 2.1, Appendix B), its (ε, δ) calibration,
// and randomized response, the local-model baseline of the evaluation.
//
// The Binomial mechanism adds Z ~ Binomial(nb, 1/2) to a counting query.
// Lemma 2.1: for nb > 30 and 0 < δ ≤ o(1/nb), the mechanism is (ε, δ)-DP
// with ε = 10·sqrt((1/nb)·ln(2/δ)), equivalently nb = 100·ln(2/δ)/ε².
// The paper deliberately uses this "simple randomness (a Binomial
// distribution constructed from Bernoulli random variables)" because each
// Bernoulli coin can be verified with a Σ-OR proof, whereas "making
// verifiable Laplace or Gaussian noise is far from clear" (Section 8).
package dp

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// MinCoins is the smallest number of Bernoulli coins for which Lemma 2.1's
// analysis applies (nb > 30).
const MinCoins = 31

// Params bundles the privacy parameters of a counting-query release.
type Params struct {
	Epsilon float64 // ε > 0
	Delta   float64 // δ ∈ (0, 1)
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 0) || math.IsNaN(p.Epsilon) {
		return fmt.Errorf("dp: epsilon must be a positive finite number, got %v", p.Epsilon)
	}
	if !(p.Delta > 0 && p.Delta < 1) {
		return fmt.Errorf("dp: delta must lie in (0,1), got %v", p.Delta)
	}
	return nil
}

// Coins returns the number of Bernoulli coins nb the Binomial mechanism
// needs for (ε, δ)-DP per Lemma 2.1: nb = ceil(100·ln(2/δ)/ε²), floored at
// MinCoins. Table 1 of the paper uses ε = 0.88, δ = 2^-10, which yields
// nb = 262144 = 2^18 private coins per prover.
func (p Params) Coins() (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	nb := math.Ceil(100 * math.Log(2/p.Delta) / (p.Epsilon * p.Epsilon))
	if nb < MinCoins {
		nb = MinCoins
	}
	if nb > 1<<40 {
		return 0, fmt.Errorf("dp: epsilon %v too small, would need %v coins", p.Epsilon, nb)
	}
	return int(nb), nil
}

// SampleBinomial draws Z ~ Binomial(nb, 1/2) by popcounting random bytes.
func SampleBinomial(nb int, r io.Reader) (int64, error) {
	if nb < 0 {
		return 0, errors.New("dp: negative coin count")
	}
	if r == nil {
		r = rand.Reader
	}
	raw := make([]byte, (nb+7)/8)
	if _, err := io.ReadFull(r, raw); err != nil {
		return 0, fmt.Errorf("dp: reading randomness: %w", err)
	}
	// Mask the unused high bits of the last byte.
	if rem := nb % 8; rem != 0 {
		raw[len(raw)-1] &= byte(1<<rem) - 1
	}
	var z int64
	for _, b := range raw {
		z += int64(bits.OnesCount8(b))
	}
	return z, nil
}

// BinomialMechanism releases a DP count: trueCount + Binomial(nb, 1/2).
// The raw release is biased upward by nb/2; Debias removes it. K provers in
// the MPC setting each add an independent copy (equation (7)), so the
// analyst debiases by K·nb/2.
type BinomialMechanism struct {
	nb int
}

// NewBinomialMechanism calibrates a mechanism for the given parameters.
func NewBinomialMechanism(p Params) (*BinomialMechanism, error) {
	nb, err := p.Coins()
	if err != nil {
		return nil, err
	}
	return &BinomialMechanism{nb: nb}, nil
}

// Coins returns nb.
func (m *BinomialMechanism) Coins() int { return m.nb }

// Release returns trueCount + Bin(nb, 1/2).
func (m *BinomialMechanism) Release(trueCount int64, r io.Reader) (int64, error) {
	z, err := SampleBinomial(m.nb, r)
	if err != nil {
		return 0, err
	}
	return trueCount + z, nil
}

// Debias removes the additive nb·copies/2 mean of the noise, giving an
// unbiased estimator of the true count.
func (m *BinomialMechanism) Debias(release int64, copies int) float64 {
	return DebiasBinomial(release, m.nb, copies)
}

// DebiasBinomial is the one debias formula every release path shares:
// copies independent Binomial(coins, ½) noises have mean copies·coins/2, so
// the unbiased estimate of the true count is release − copies·coins/2. It
// is exposed at package level (without the MinCoins calibration floor) for
// callers that carry an explicit coin count, such as transcript decoders
// and the hybrid pipeline.
func DebiasBinomial(release int64, coins, copies int) float64 {
	return float64(release) - float64(copies)*float64(coins)/2
}

// CountMinBound is the additive error envelope of a count-min point query
// over a width-w sketch holding total items, with per-cell noise of the
// given standard deviation: the classic e·total/w overcount term (Cormode &
// Muthukrishnan's bound, holding per query with probability ≥ 1 − e^-rows)
// plus a 3σ envelope of the debiased
// binomial noise. A point estimate is within ±bound of the true count with
// high probability; heavy-hitter callers use it to separate real hitters
// from hash-collision inflation.
func CountMinBound(width int, total int64, noiseStddev float64) float64 {
	return math.E*float64(total)/float64(width) + 3*noiseStddev
}

// uniformFloat draws a uniform float64 in [0, 1) from r.
func uniformFloat(r io.Reader) (float64, error) {
	if r == nil {
		r = rand.Reader
	}
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	u := uint64(buf[0])<<56 | uint64(buf[1])<<48 | uint64(buf[2])<<40 | uint64(buf[3])<<32 |
		uint64(buf[4])<<24 | uint64(buf[5])<<16 | uint64(buf[6])<<8 | uint64(buf[7])
	return float64(u>>11) / (1 << 53), nil
}

// RandomizedResponse is the local-DP baseline (Warner 1965): each client
// reports its true bit with probability e^ε/(1+e^ε) and the flipped bit
// otherwise. The aggregate estimator is unbiased but has error Θ(√n),
// versus O(1) for the central mechanisms — the gap discussed in Section 7
// ("the accuracy of the protocol for even the binary histogram is O(√n)
// compared to O(1) in the central model").
type RandomizedResponse struct {
	pTruth float64 // probability of reporting the true bit
}

// NewRandomizedResponse builds an ε-LDP randomizer.
func NewRandomizedResponse(epsilon float64) (*RandomizedResponse, error) {
	if !(epsilon > 0) || math.IsInf(epsilon, 0) || math.IsNaN(epsilon) {
		return nil, fmt.Errorf("dp: epsilon must be positive and finite, got %v", epsilon)
	}
	e := math.Exp(epsilon)
	return &RandomizedResponse{pTruth: e / (1 + e)}, nil
}

// Randomize perturbs a single client bit.
func (rr *RandomizedResponse) Randomize(bit bool, r io.Reader) (bool, error) {
	u, err := uniformFloat(r)
	if err != nil {
		return false, err
	}
	if u < rr.pTruth {
		return bit, nil
	}
	return !bit, nil
}

// Estimate converts the observed count of 1-reports among n clients into an
// unbiased estimate of the true count: (observed - n(1-p)) / (2p - 1).
func (rr *RandomizedResponse) Estimate(observed int64, n int) float64 {
	p := rr.pTruth
	return (float64(observed) - float64(n)*(1-p)) / (2*p - 1)
}
