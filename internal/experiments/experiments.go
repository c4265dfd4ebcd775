// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) from the reimplemented system:
//
//	Table 1   — per-stage latency of ΠBin (Σ-proof, Σ-verification, Morra,
//	            Aggregation, Check)
//	Figure 3  — Σ-proof creation/verification latency as a function of the
//	            privacy parameter ε (nb ∝ 1/ε²)
//	Figure 4  — client one-hot validation latency vs dimension M: Σ-OR
//	            (this paper) against the PRIO/Poplar sketching baseline
//	Table 2   — the protocol property matrix (active security, central DP
//	            error, auditability, leakage), made executable by running
//	            the corresponding attack scenarios
//	§6 micro  — single group exponentiation cost in the finite-field and
//	            elliptic-curve groups
//	§7 series — central vs local DP error as a function of population size
//
// The package reproduces the paper and nothing else. The system built
// around the protocol — durable board, batched admission, shards, cluster,
// failover, live tail, heavy hitters — is measured by the repository
// benchmark in bench/ and by the go test -bench benchmarks next to each
// package; EXPERIMENTS.md § "System measurements" maps one to the other.
//
// Each experiment returns a structured result with a Format method that
// renders the same rows/series the paper reports. Absolute timings depend
// on the host and on Go's math/big (the paper used Rust + OpenSSL on an
// Apple M1); EXPERIMENTS.md records the measured values and compares
// shapes.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick runs in seconds; used by `go test` and the default CLI.
	Quick Scale = iota
	// Standard runs in a few minutes.
	Standard
	// Paper uses the paper's literal parameters (n = 10^6, nb = 262144);
	// expect hours with math/big arithmetic.
	Paper
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "quick", "":
		return Quick, nil
	case "standard":
		return Standard, nil
	case "paper":
		return Paper, nil
	default:
		return Quick, fmt.Errorf("experiments: unknown scale %q (quick|standard|paper)", s)
	}
}

func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Standard:
		return "standard"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// fmtDuration renders a duration with ms precision like the paper's tables.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2f s", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1f ms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%d µs", d.Microseconds())
	}
}

// timeIt measures fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
