package dp

import (
	"fmt"
	"math"
)

// This file numerically validates the smoothness property that underpins
// Lemma 2.1 (Definition 13 and Lemma B.2 of the paper): a distribution D
// over Z is (ε, δ, k)-smooth when
//
//	Pr_{Y~D}[ Pr[Y'=Y] / Pr[Y'=Y+k'] ≥ e^{|k'|ε} ] ≤ δ   for all |k'| ≤ k.
//
// Counting queries are 1-incremental (Definition 12), so k = 1 suffices and
// smoothness of Binomial(nb, 1/2) implies the mechanism is (ε, δ)-DP
// (Lemma B.1). TestSmoothness uses this to confirm that Params.Coins's
// calibration is not just asymptotically right but numerically sound at
// deployment sizes.

// binomLogPMF returns ln Pr[Bin(n,1/2) = y] computed via log-gamma, stable
// for n up to millions.
func binomLogPMF(n, y int) float64 {
	if y < 0 || y > n {
		return math.Inf(-1)
	}
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x)
		return v
	}
	return lg(float64(n+1)) - lg(float64(y+1)) - lg(float64(n-y+1)) - float64(n)*math.Ln2
}

// SmoothnessViolationMass computes, for D = Binomial(nb, 1/2) and shift
// k' ∈ {+1, -1}, the probability mass of outcomes y where the pmf ratio
// Pr[Y=y]/Pr[Y=y+k'] is at least e^ε. The mechanism is (ε, δ, 1)-smooth iff
// both returned masses are ≤ δ.
func SmoothnessViolationMass(nb int, epsilon float64) (plusMass, minusMass float64, err error) {
	if nb < 1 {
		return 0, 0, fmt.Errorf("dp: invalid coin count %d", nb)
	}
	if !(epsilon > 0) {
		return 0, 0, fmt.Errorf("dp: invalid epsilon %v", epsilon)
	}
	// Ratios are monotone in y:
	//   P(y)/P(y+1) = (y+1)/(nb-y), increasing in y  → violations form an
	//   upper tail  y ≥ y⁺.
	//   P(y)/P(y-1) = (nb-y+1)/y, decreasing in y    → violations form a
	//   lower tail  y ≤ y⁻.
	// Find the thresholds by binary search, then sum tail masses in log
	// space.
	eEps := math.Exp(epsilon)

	// Upper tail for k' = +1: the ratio P(y)/P(y+1) = (y+1)/(nb-y) is
	// increasing in y (for y = nb the ratio is +∞ since P(nb+1) = 0), so the
	// violating outcomes are exactly y ≥ y⁺ where y⁺ is the smallest y with
	// (y+1)/(nb-y) ≥ e^ε. Start from the algebraic solution and nudge for
	// float rounding.
	yPlus := int(math.Ceil((eEps*float64(nb) - 1) / (1 + eEps)))
	if yPlus < 0 {
		yPlus = 0
	}
	ratioPlus := func(y int) float64 {
		if y >= nb {
			return math.Inf(1)
		}
		return float64(y+1) / float64(nb-y)
	}
	for yPlus > 0 && ratioPlus(yPlus-1) >= eEps {
		yPlus--
	}
	for yPlus <= nb && ratioPlus(yPlus) < eEps {
		yPlus++
	}
	plusMass = binomUpperTail(nb, yPlus)

	// Lower tail for k' = -1: the ratio P(y)/P(y-1) = (nb-y+1)/y is
	// decreasing in y (for y = 0 it is +∞ since P(-1) = 0), so violations
	// are exactly y ≤ y⁻ where y⁻ is the largest y with (nb-y+1)/y ≥ e^ε.
	ratioMinus := func(y int) float64 {
		if y <= 0 {
			return math.Inf(1)
		}
		return float64(nb-y+1) / float64(y)
	}
	yMinus := int(math.Floor((float64(nb) + 1) / (eEps + 1)))
	if yMinus > nb {
		yMinus = nb
	}
	for yMinus >= 1 && ratioMinus(yMinus) < eEps {
		yMinus--
	}
	for yMinus+1 <= nb && ratioMinus(yMinus+1) >= eEps {
		yMinus++
	}
	minusMass = binomLowerTail(nb, yMinus)
	return plusMass, minusMass, nil
}

// binomUpperTail returns Pr[Bin(nb,1/2) >= y0].
func binomUpperTail(nb, y0 int) float64 {
	if y0 <= 0 {
		return 1
	}
	if y0 > nb {
		return 0
	}
	sum := 0.0
	for y := y0; y <= nb; y++ {
		lp := binomLogPMF(nb, y)
		p := math.Exp(lp)
		sum += p
		// Past the mode the pmf decays geometrically; stop when negligible.
		if y > nb/2 && p < 1e-300 {
			break
		}
	}
	return sum
}

// binomLowerTail returns Pr[Bin(nb,1/2) <= y0].
func binomLowerTail(nb, y0 int) float64 {
	if y0 < 0 {
		return 0
	}
	if y0 >= nb {
		return 1
	}
	sum := 0.0
	for y := y0; y >= 0; y-- {
		lp := binomLogPMF(nb, y)
		p := math.Exp(lp)
		sum += p
		if y < nb/2 && p < 1e-300 {
			break
		}
	}
	return sum
}

// IsSmooth reports whether Binomial(nb, 1/2) is (ε, δ, 1)-smooth.
func IsSmooth(nb int, epsilon, delta float64) (bool, error) {
	plus, minus, err := SmoothnessViolationMass(nb, epsilon)
	if err != nil {
		return false, err
	}
	return plus <= delta && minus <= delta, nil
}
