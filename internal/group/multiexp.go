package group

import (
	"math/big"
	"runtime"
	"sync"

	"repro/internal/field"
)

// This file provides the two exponentiation accelerators that make the
// protocol's hot paths (Pedersen commitments and Σ-OR verification)
// practical at the paper's workload sizes:
//
//   - Precomp: fixed-base windowed exponentiation. Commitments and Σ-proof
//     responses always exponentiate the public generators g and h, so a
//     one-time table per generator converts each exponentiation into ~32
//     group operations.
//
//   - MultiExpStraus: Straus' interleaved multi-exponentiation, which
//     evaluates Π bᵢ^{kᵢ} sharing the squaring chain across all terms.
//     Batch verification of nb Σ-OR proofs reduces to one such product
//     (see sigma.VerifyBitsBatch), amortizing the dominant verifier cost.
//
// Both are generic over the Group interface — they only need Op — so the
// same code accelerates the finite-field and elliptic-curve deployments.
// bench ablations: BenchmarkPrecompExp and BenchmarkMultiExp in
// multiexp_test.go quantify the speedups the protocol relies on.

// precompWindow is the fixed-base window width in bits. 8 bits gives
// ceil(256/8) = 32 group operations per exponentiation at a table cost of
// 32·255 elements per base.
const precompWindow = 8

// Precomp is a precomputed fixed-base exponentiation table for one base
// element. It is immutable after construction and safe for concurrent use.
type Precomp struct {
	g Group
	// table[w][d-1] = base^(d · 2^(w·precompWindow)) for d in [1, 2^w).
	table [][]Element
}

// NewPrecomp builds the table for the given base. Construction costs
// O(2^w · bits/w) group operations and is intended to be done once per
// generator at setup time.
func NewPrecomp(g Group, base Element) *Precomp {
	bits := g.ScalarField().BitLen()
	windows := (bits + precompWindow - 1) / precompWindow
	p := &Precomp{g: g, table: make([][]Element, windows)}
	cur := base // base^(2^(w·window))
	for w := 0; w < windows; w++ {
		row := make([]Element, (1<<precompWindow)-1)
		acc := cur
		for d := 1; d < 1<<precompWindow; d++ {
			row[d-1] = acc
			acc = g.Op(acc, cur)
		}
		p.table[w] = row
		cur = acc // acc = cur^(2^window) after the loop
	}
	return p
}

// Exp returns base^k using the precomputed table: one table lookup and at
// most one group operation per window.
func (p *Precomp) Exp(k *field.Element) Element {
	acc := p.g.Identity()
	kb := k.BigInt()
	words := kb.Bits()
	_ = words
	windows := len(p.table)
	for w := 0; w < windows; w++ {
		var digit uint
		for b := 0; b < precompWindow; b++ {
			digit |= kb.Bit(w*precompWindow+b) << b
		}
		if digit != 0 {
			acc = p.g.Op(acc, p.table[w][digit-1])
		}
	}
	return acc
}

// Exp2Precomp returns a^k1 ∘ b^k2 from two precomputed tables — the accelerated
// form of a Pedersen commitment evaluation.
func Exp2Precomp(a *Precomp, k1 *field.Element, b *Precomp, k2 *field.Element) Element {
	return a.g.Op(a.Exp(k1), b.Exp(k2))
}

// strausWindow is the per-term window width for MultiExpStraus.
const strausWindow = 4

// MultiExpStraus computes Π bases[i]^{exps[i]} with Straus' interleaved
// method: per-term 4-bit digit tables plus a single shared squaring chain.
// For n terms of 256-bit exponents this costs roughly 256 + 79n group
// operations versus ~380n for independent exponentiations.
func MultiExpStraus(g Group, bases []Element, exps []*field.Element) Element {
	if len(bases) != len(exps) {
		panic("group: MultiExpStraus length mismatch")
	}
	if len(bases) == 0 {
		return g.Identity()
	}
	// Per-term tables of odd+even multiples: table[i][d-1] = bases[i]^d.
	// The exponent copies are hoisted out of the window loop: BigInt()
	// clones the representative, and the window scan below reads every
	// exponent once per window — re-copying there cost O(windows·n)
	// allocations for no reason.
	tables := make([][]Element, len(bases))
	kbs := make([]*big.Int, len(exps))
	maxBits := 0
	for i, b := range bases {
		row := make([]Element, (1<<strausWindow)-1)
		acc := b
		for d := 1; d < 1<<strausWindow; d++ {
			row[d-1] = acc
			acc = g.Op(acc, b)
		}
		tables[i] = row
		kbs[i] = exps[i].BigInt()
		if bl := kbs[i].BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return g.Identity()
	}
	windows := (maxBits + strausWindow - 1) / strausWindow
	acc := g.Identity()
	for w := windows - 1; w >= 0; w-- {
		for s := 0; s < strausWindow; s++ {
			acc = g.Op(acc, acc)
		}
		for i := range bases {
			kb := kbs[i]
			var digit uint
			for b := 0; b < strausWindow; b++ {
				digit |= kb.Bit(w*strausWindow+b) << b
			}
			if digit != 0 {
				acc = g.Op(acc, tables[i][digit-1])
			}
		}
	}
	return acc
}

// multiExpParallelMin is the term count below which MultiExpParallel stays
// sequential: each extra chunk pays its own ~256-op squaring chain, so tiny
// products are faster on one core.
const multiExpParallelMin = 64

// MultiExpParallel computes Π bases[i]^{exps[i]} on up to `workers`
// goroutines (workers <= 0 selects GOMAXPROCS), choosing the fastest
// available strategy:
//
//  1. A backend-native multi-exponentiation (NativeMultiExp, e.g. the fast
//     P-256 group's signed-digit Pippenger over raw points) wins outright.
//     It shares its bucket windows among the workers, which duplicates no
//     work, and keeps products too small to repay a hand-off on the caller.
//  2. Otherwise the terms split into up to `workers` contiguous chunks,
//     each evaluated on its own goroutine with the best generic algorithm
//     for its size — Pippenger buckets at ≥ pippengerMin terms, Straus
//     below. Each chunk repeats the shared squaring chain (~256 ops), so
//     this only pays for large products; small inputs fall through to the
//     sequential path.
//
// The result is independent of the worker count and strategy, so callers
// may treat this as a drop-in MultiExpStraus.
func MultiExpParallel(g Group, bases []Element, exps []*field.Element, workers int) Element {
	if len(bases) != len(exps) {
		panic("group: MultiExpParallel length mismatch")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if me, ok := g.(NativeMultiExp); ok {
		return me.MultiExpNative(bases, exps, workers)
	}
	if workers > len(bases)/multiExpParallelMin {
		workers = len(bases) / multiExpParallelMin
	}
	if workers <= 1 {
		return multiExpAuto(g, bases, exps)
	}
	chunk := (len(bases) + workers - 1) / workers
	parts := make([]Element, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(bases) {
			hi = len(bases)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = multiExpAuto(g, bases[lo:hi], exps[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	acc := g.Identity()
	for _, p := range parts {
		acc = g.Op(acc, p)
	}
	return acc
}

// multiExpAuto picks the generic algorithm by batch size.
func multiExpAuto(g Group, bases []Element, exps []*field.Element) Element {
	if len(bases) >= pippengerMin {
		return MultiExpPippenger(g, bases, exps)
	}
	return MultiExpStraus(g, bases, exps)
}
