package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/dp"
	"repro/internal/field"
	"repro/internal/group"
)

// DPErrorConfig sets the population sweep for the central-vs-local error
// experiment backing the Section 7 discussion (central error O(1) vs local
// randomized-response error O(√n)).
type DPErrorConfig struct {
	Epsilon     float64
	Delta       float64
	Populations []int
	Trials      int
	// Rand is the noise and randomized-response source (nil = crypto/rand).
	Rand io.Reader
}

func dpErrorConfigFor(s Scale) DPErrorConfig {
	cfg := DPErrorConfig{Epsilon: 1.0, Delta: 1e-6, Trials: 20}
	switch s {
	case Paper:
		cfg.Populations = []int{1000, 4000, 16000, 64000, 256000, 1000000}
		cfg.Trials = 50
	case Standard:
		cfg.Populations = []int{1000, 4000, 16000, 64000}
	default:
		cfg.Populations = []int{500, 2000, 8000}
		cfg.Trials = 10
	}
	return cfg
}

// DPErrorPoint is one population size's measurements.
type DPErrorPoint struct {
	N            int
	CentralError float64 // binomial mechanism mean |error|
	LocalError   float64 // randomized response mean |error|
}

// DPErrorResult is the sweep plus the theoretical envelope.
type DPErrorResult struct {
	Config DPErrorConfig
	Coins  int // nb used by the central mechanism
	Points []DPErrorPoint
}

// DPError measures the DP-Error (Definition 6) of the central binomial
// mechanism and local randomized response across population sizes.
func DPError(cfg DPErrorConfig) (*DPErrorResult, error) {
	if cfg.Trials < 1 || len(cfg.Populations) == 0 {
		return nil, fmt.Errorf("experiments: invalid DP error config %+v", cfg)
	}
	mech, err := dp.NewBinomialMechanism(dp.Params{Epsilon: cfg.Epsilon, Delta: cfg.Delta})
	if err != nil {
		return nil, err
	}
	rr, err := dp.NewRandomizedResponse(cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	res := &DPErrorResult{Config: cfg, Coins: mech.Coins()}
	for _, n := range cfg.Populations {
		truth := int64(n / 3)
		var central, local float64
		for t := 0; t < cfg.Trials; t++ {
			rel, err := mech.Release(truth, cfg.Rand)
			if err != nil {
				return nil, err
			}
			central += math.Abs(mech.Debias(rel, 1) - float64(truth))

			var obs int64
			for i := 0; i < n; i++ {
				rep, err := rr.Randomize(i%3 == 0, cfg.Rand)
				if err != nil {
					return nil, err
				}
				if rep {
					obs++
				}
			}
			// The true count of i%3==0 over [0,n) is ceil(n/3).
			trueRR := float64((n + 2) / 3)
			local += math.Abs(rr.Estimate(obs, n) - trueRR)
		}
		res.Points = append(res.Points, DPErrorPoint{
			N:            n,
			CentralError: central / float64(cfg.Trials),
			LocalError:   local / float64(cfg.Trials),
		})
	}
	return res, nil
}

// DPErrorAtScale runs the sweep at a named scale.
func DPErrorAtScale(s Scale) (*DPErrorResult, error) {
	return DPError(dpErrorConfigFor(s))
}

// Format renders the series.
func (r *DPErrorResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DP-Error vs population (ε=%g, δ=%g, nb=%d): central O(1) vs local O(√n)\n",
		r.Config.Epsilon, r.Config.Delta, r.Coins)
	fmt.Fprintf(&b, "%-10s %-18s %-18s\n", "n", "central (binomial)", "local (rand. resp.)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10d %-18.1f %-18.1f\n", p.N, p.CentralError, p.LocalError)
	}
	return b.String()
}

// MicrobenchResult reports the Section 6 microbenchmark: the cost of a
// single exponentiation in each commitment group (paper: 35 µs for
// G_q ⊂ Z*_p, 328 µs for Curve25519, Apple M1 + Rust/OpenSSL).
//
// The exponentiations are measured on a *non-generator* base so the
// number is a general (variable-base) exponentiation on every backend:
// the fast P-256 group special-cases its two fixed generators through
// precomputed tables, and quoting that amortized cost as "one
// exponentiation" would make the cross-group and cross-paper comparison
// apples-to-oranges. The fixed-base cost is reported separately.
type MicrobenchResult struct {
	SchnorrExp time.Duration
	CurveExp   time.Duration
	// CurveFixedBaseExp is the generator (precomputed-table) path of the
	// fast P-256 backend — the cost commitments actually pay per term.
	CurveFixedBaseExp time.Duration
}

// Microbench measures single-exponentiation latency for both groups.
func Microbench() (*MicrobenchResult, error) {
	res := &MicrobenchResult{}
	for _, entry := range []struct {
		g        group.Group
		variable bool
		dst      *time.Duration
	}{
		{group.Schnorr2048(), true, &res.SchnorrExp},
		{group.P256(), true, &res.CurveExp},
		{group.P256(), false, &res.CurveFixedBaseExp},
	} {
		k, err := entry.g.RandomScalar(nil)
		if err != nil {
			return nil, err
		}
		const iters = 32
		var ks []*field.Element
		for i := 0; i < iters; i++ {
			ks = append(ks, k.Add(entry.g.ScalarField().FromInt64(int64(i))))
		}
		base := entry.g.Generator()
		if entry.variable {
			// A hashed point has no precomputed table on any backend.
			base = entry.g.HashToElement("microbench/base/v1", nil)
		}
		d, err := timeIt(func() error {
			for _, ki := range ks {
				entry.g.Exp(base, ki)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		*entry.dst = d / iters
	}
	return res, nil
}

// Format renders the microbenchmark.
func (r *MicrobenchResult) Format() string {
	var b strings.Builder
	b.WriteString("§6 microbenchmark: single group exponentiation (variable base)\n")
	fmt.Fprintf(&b, "%-22s %-12s   (paper, M1+Rust: 35 µs)\n", "G_q ⊂ Z*_p (2048-bit)", fmtDuration(r.SchnorrExp))
	fmt.Fprintf(&b, "%-22s %-12s   (paper, M1+Rust: 328 µs over Curve25519)\n", "P-256 curve", fmtDuration(r.CurveExp))
	fmt.Fprintf(&b, "%-22s %-12s   (fixed-base table, what commitments pay)\n", "P-256 generator", fmtDuration(r.CurveFixedBaseExp))
	return b.String()
}
