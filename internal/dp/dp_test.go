package dp

import (
	"bytes"
	"math"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Epsilon: 0, Delta: 0.01},
		{Epsilon: -1, Delta: 0.01},
		{Epsilon: math.Inf(1), Delta: 0.01},
		{Epsilon: math.NaN(), Delta: 0.01},
		{Epsilon: 1, Delta: 0},
		{Epsilon: 1, Delta: 1},
		{Epsilon: 1, Delta: -0.5},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
	if err := (Params{Epsilon: 0.88, Delta: math.Pow(2, -10)}).Validate(); err != nil {
		t.Errorf("Validate rejected the paper's Table 1 parameters: %v", err)
	}
}

// TestCoinsPaperCalibration checks the calibration nb = 100·ln(2/δ)/ε²
// implied by Lemma 2.1. At the paper's Table 1 setting ε = 0.88, δ = 2^-10
// the formula gives nb = ceil(100·ln(2048)/0.7744) = 985. (The paper's
// caption states nb = 262144 = 2^18 for these parameters, which is
// inconsistent with its own Lemma — 2^18 coins give ε ≈ 0.054. We reproduce
// the formula; the Table 1 *workload* uses the paper's literal nb = 2^18.
// See EXPERIMENTS.md.)
func TestCoinsPaperCalibration(t *testing.T) {
	nb, err := (Params{Epsilon: 0.88, Delta: math.Pow(2, -10)}).Coins()
	if err != nil {
		t.Fatal(err)
	}
	if nb != 985 {
		t.Errorf("nb = %d, analytic formula gives 985", nb)
	}
	// Lemma 2.1 read backwards, ε = 10·sqrt(ln(2/δ)/nb), must give back an
	// epsilon no larger than requested.
	epsilonFor := func(nb int) float64 { return 10 * math.Sqrt(math.Log(2/math.Pow(2, -10))/float64(nb)) }
	if eps := epsilonFor(nb); eps > 0.88+1e-9 {
		t.Errorf("epsilon for nb=%d is %v > 0.88: calibration not conservative", nb, eps)
	}
	// The paper's literal coin count gives a (much) stronger epsilon.
	if eps := epsilonFor(262144); eps > 0.06 {
		t.Errorf("eps for nb=2^18 = %v, want ≈ 0.054", eps)
	}
}

func TestCoinsMonotoneInEpsilon(t *testing.T) {
	delta := 1e-6
	prev := math.MaxInt64
	for _, eps := range []float64{0.25, 0.5, 1.0, 2.0, 4.0} {
		nb, err := (Params{Epsilon: eps, Delta: delta}).Coins()
		if err != nil {
			t.Fatal(err)
		}
		if nb > prev {
			t.Errorf("coins not monotone: eps=%v needs %d > %d", eps, nb, prev)
		}
		if nb < MinCoins {
			t.Errorf("coins below MinCoins")
		}
		prev = nb
	}
	// 1/ε² scaling: halving ε should quadruple nb (when above MinCoins).
	nb1, _ := (Params{Epsilon: 1, Delta: delta}).Coins()
	nb2, _ := (Params{Epsilon: 0.5, Delta: delta}).Coins()
	ratio := float64(nb2) / float64(nb1)
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("nb scaling with 1/eps² violated: ratio %v", ratio)
	}
}

func TestCoinsRejectsTinyEpsilon(t *testing.T) {
	if _, err := (Params{Epsilon: 1e-9, Delta: 0.01}).Coins(); err == nil {
		t.Error("accepted epsilon requiring > 2^40 coins")
	}
}

func TestSampleBinomialMoments(t *testing.T) {
	const nb = 256
	const trials = 4000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		z, err := SampleBinomial(nb, nil)
		if err != nil {
			t.Fatal(err)
		}
		if z < 0 || z > nb {
			t.Fatalf("sample %d outside [0, %d]", z, nb)
		}
		sum += float64(z)
		sumSq += float64(z) * float64(z)
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	// Mean nb/2 = 128, sd of the mean ≈ 8/sqrt(4000) ≈ 0.13; allow 6 sigma.
	if math.Abs(mean-128) > 1.0 {
		t.Errorf("mean = %v, want ≈ 128", mean)
	}
	// Variance nb/4 = 64, generous bounds.
	if variance < 48 || variance > 82 {
		t.Errorf("variance = %v, want ≈ 64", variance)
	}
}

func TestSampleBinomialDeterministicSource(t *testing.T) {
	// All-zero randomness gives 0; all-ones gives nb.
	z, err := SampleBinomial(37, bytes.NewReader(make([]byte, 100)))
	if err != nil || z != 0 {
		t.Errorf("all-zero source: z=%d err=%v", z, err)
	}
	ones := bytes.Repeat([]byte{0xff}, 100)
	z, err = SampleBinomial(37, bytes.NewReader(ones))
	if err != nil || z != 37 {
		t.Errorf("all-one source: z=%d err=%v (masking of final byte)", z, err)
	}
}

func TestBinomialMechanism(t *testing.T) {
	m, err := NewBinomialMechanism(Params{Epsilon: 1.0, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if m.Coins() < MinCoins {
		t.Error("calibrated below MinCoins")
	}
	rel, err := m.Release(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel < 1000 || rel > 1000+int64(m.Coins()) {
		t.Errorf("release %d outside [1000, 1000+nb]", rel)
	}
	// Debias: average of many releases should be near the true count.
	const trials = 300
	var acc float64
	for i := 0; i < trials; i++ {
		r, err := m.Release(1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		acc += m.Debias(r, 1)
	}
	got := acc / trials
	tol := 6 * math.Sqrt(float64(m.Coins())/4) / math.Sqrt(trials)
	if math.Abs(got-1000) > tol {
		t.Errorf("debiased mean %v, want 1000 ± %v", got, tol)
	}
}

func TestRandomizedResponse(t *testing.T) {
	if _, err := NewRandomizedResponse(-1); err == nil {
		t.Error("accepted negative epsilon")
	}
	rr, err := NewRandomizedResponse(1.0)
	if err != nil {
		t.Fatal(err)
	}
	// n clients, 30% ones; the estimator should land near the true count.
	const n = 20000
	trueCount := int64(0)
	observed := int64(0)
	for i := 0; i < n; i++ {
		bit := i%10 < 3
		if bit {
			trueCount++
		}
		rep, err := rr.Randomize(bit, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep {
			observed++
		}
	}
	est := rr.Estimate(observed, n)
	// Error is O(√n): sd ≈ sqrt(n·p(1-p))/(2p-1) ≈ 150 here; allow 6 sigma.
	if math.Abs(est-float64(trueCount)) > 900 {
		t.Errorf("RR estimate %v, true %d", est, trueCount)
	}
}

// TestCentralVsLocalErrorSeparation reproduces the Section 7 discussion:
// central binomial error is independent of n while randomized response
// error grows with √n. We measure mean absolute error at two population
// sizes and require the RR error to grow while the central error does not.
func TestCentralVsLocalErrorSeparation(t *testing.T) {
	eps := 1.0
	m, err := NewBinomialMechanism(Params{Epsilon: eps, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRandomizedResponse(eps)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n int) (central, local float64) {
		const trials = 40
		for tr := 0; tr < trials; tr++ {
			trueCount := int64(n / 3)
			rel, err := m.Release(trueCount, nil)
			if err != nil {
				t.Fatal(err)
			}
			central += math.Abs(m.Debias(rel, 1) - float64(trueCount))
			obs := int64(0)
			for i := 0; i < n; i++ {
				rep, err := rr.Randomize(i%3 == 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep {
					obs++
				}
			}
			local += math.Abs(rr.Estimate(obs, n) - float64(int64(n)/3+boolToI64(n%3 != 0)*0))
		}
		return central / trials, local / trials
	}
	cSmall, lSmall := measure(1000)
	cBig, lBig := measure(16000)
	// Central error should be roughly flat (same nb): within 2x.
	if cBig > 2.5*cSmall+1 {
		t.Errorf("central error grew with n: %v -> %v", cSmall, cBig)
	}
	// Local error should grow noticeably (√16 = 4x expected): at least 2x.
	if lBig < 2*lSmall {
		t.Errorf("local RR error did not grow with n: %v -> %v", lSmall, lBig)
	}
}

func boolToI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestSmoothness validates Definition 13 numerically: at the calibrated
// (nb, ε, δ) the violation mass must be ≤ δ, and at a substantially larger
// ε' the mass must drop to (near) zero while a substantially smaller ε'
// must blow past δ.
func TestSmoothness(t *testing.T) {
	delta := 1e-6
	for _, eps := range []float64{0.5, 1.0, 2.0} {
		nb, err := (Params{Epsilon: eps, Delta: delta}).Coins()
		if err != nil {
			t.Fatal(err)
		}
		ok, err := IsSmooth(nb, eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			plus, minus, _ := SmoothnessViolationMass(nb, eps)
			t.Errorf("eps=%v nb=%d: not smooth (masses %v, %v vs delta %v)", eps, nb, plus, minus, delta)
		}
		// A tenth of the epsilon with the same coins must violate: the
		// calibration is not vacuously loose.
		ok, err = IsSmooth(nb, eps/10, delta)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("eps=%v nb=%d: smooth even at eps/10 — calibration is vacuous", eps, nb)
		}
	}
}

func TestSmoothnessValidation(t *testing.T) {
	if _, _, err := SmoothnessViolationMass(0, 1); err == nil {
		t.Error("accepted nb=0")
	}
	if _, _, err := SmoothnessViolationMass(100, 0); err == nil {
		t.Error("accepted eps=0")
	}
}

func TestBinomLogPMFSanity(t *testing.T) {
	// Sum of pmf over support ≈ 1 for small n.
	for _, n := range []int{1, 2, 10, 64} {
		sum := 0.0
		for y := 0; y <= n; y++ {
			sum += math.Exp(binomLogPMF(n, y))
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d: pmf sums to %v", n, sum)
		}
	}
	if !math.IsInf(binomLogPMF(10, -1), -1) || !math.IsInf(binomLogPMF(10, 11), -1) {
		t.Error("out-of-support pmf should be -inf")
	}
}

func BenchmarkSampleBinomial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SampleBinomial(262144, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCountMinBound pins the heavy-hitter error envelope: the overcount term
// scales as e·total/width and the noise term as 3σ.
func TestCountMinBound(t *testing.T) {
	// Noise-free: pure collision-inflation term, e·total/width.
	got := CountMinBound(128, 1000, 0)
	want := math.E * 1000.0 / 128.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("CountMinBound(128, 1000, 0) = %v, want %v", got, want)
	}
	// Adding noise widens the envelope by exactly 3σ.
	if d := CountMinBound(128, 1000, 5) - got; math.Abs(d-15) > 1e-9 {
		t.Fatalf("noise term contributed %v, want 15 (3σ at σ=5)", d)
	}
	// Doubling the width halves the overcount term.
	if w2 := CountMinBound(256, 1000, 0); math.Abs(w2-want/2) > 1e-9 {
		t.Fatalf("CountMinBound(256, 1000, 0) = %v, want %v", w2, want/2)
	}
}
