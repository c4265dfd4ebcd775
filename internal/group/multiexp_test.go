package group

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

func TestPrecompMatchesExp(t *testing.T) {
	for _, g := range allGroups() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			pc := NewPrecomp(g, g.Generator())
			rng := rand.New(rand.NewSource(21))
			specials := []*field.Element{
				g.ScalarField().Zero(),
				g.ScalarField().One(),
				g.ScalarField().One().Neg(),
			}
			for _, k := range specials {
				if !g.Equal(pc.Exp(k), g.Exp(g.Generator(), k)) {
					t.Fatalf("Precomp.Exp(%v) mismatch", k)
				}
			}
			for i := 0; i < 8; i++ {
				k := randScalar(g, rng)
				if !g.Equal(pc.Exp(k), g.Exp(g.Generator(), k)) {
					t.Fatalf("Precomp.Exp mismatch at trial %d", i)
				}
			}
		})
	}
}

func TestExp2Precomp(t *testing.T) {
	g := Schnorr2048()
	pg := NewPrecomp(g, g.Generator())
	ph := NewPrecomp(g, g.AltGenerator())
	rng := rand.New(rand.NewSource(22))
	k1, k2 := randScalar(g, rng), randScalar(g, rng)
	want := g.Op(g.Exp(g.Generator(), k1), g.Exp(g.AltGenerator(), k2))
	got := Exp2Precomp(pg, k1, ph, k2)
	if !g.Equal(got, want) {
		t.Error("Exp2Precomp mismatch")
	}
}

func TestMultiExpStrausMatchesNaive(t *testing.T) {
	for _, g := range allGroups() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			for _, n := range []int{0, 1, 2, 5, 9} {
				bases := make([]Element, n)
				exps := make([]*field.Element, n)
				for i := range bases {
					bases[i] = g.Exp(g.Generator(), randScalar(g, rng))
					exps[i] = randScalar(g, rng)
				}
				want := multiExpNaive(g, bases, exps)
				got := MultiExpStraus(g, bases, exps)
				if !g.Equal(got, want) {
					t.Fatalf("n=%d: Straus mismatch", n)
				}
			}
		})
	}
}

func TestMultiExpStrausEdgeCases(t *testing.T) {
	g := Schnorr2048()
	f := g.ScalarField()
	// All-zero exponents → identity.
	bases := []Element{g.Generator(), g.AltGenerator()}
	exps := []*field.Element{f.Zero(), f.Zero()}
	if !g.Equal(MultiExpStraus(g, bases, exps), g.Identity()) {
		t.Error("zero exponents should give identity")
	}
	// Mixed small exponents.
	exps = []*field.Element{f.FromInt64(3), f.FromInt64(1)}
	want := g.Op(g.Exp(g.Generator(), exps[0]), g.AltGenerator())
	if !g.Equal(MultiExpStraus(g, bases, exps), want) {
		t.Error("small exponent mismatch")
	}
}

func TestMultiExpStrausMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := P256()
	MultiExpStraus(g, []Element{g.Generator()}, nil)
}

// TestMultiExpParallelMatchesNaive: the product does not depend on the
// worker count or the strategy — native Pippenger on the fast P-256 group,
// chunked generic evaluation on the others — below and above the size at
// which the generic path splits.
func TestMultiExpParallelMatchesNaive(t *testing.T) {
	cases := []struct {
		name string
		g    Group
	}{{"schnorr2048", Schnorr2048()}, {"p256-generic", P256Generic()}, {"p256-native", P256()}}
	for _, c := range cases {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			f := g.ScalarField()
			rng := rand.New(rand.NewSource(24))
			for _, n := range []int{0, 5, 2*multiExpParallelMin + 3} {
				bases := make([]Element, n)
				exps := make([]*field.Element, n)
				for i := range bases {
					bases[i] = g.Exp(g.Generator(), randScalar(g, rng))
					exps[i] = randScalar(g, rng)
				}
				if n > 0 {
					exps[0] = f.Zero()
					exps[n-1] = f.One().Neg()
				}
				want := multiExpNaive(g, bases, exps)
				for _, workers := range []int{0, 1, 2, 3} {
					if got := MultiExpParallel(g, bases, exps, workers); !g.Equal(got, want) {
						t.Fatalf("n=%d workers=%d: MultiExpParallel != naive product", n, workers)
					}
				}
			}
		})
	}
}

func TestMultiExpParallelMismatchPanics(t *testing.T) {
	for _, g := range []Group{Schnorr2048(), P256()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", g.Name())
				}
			}()
			MultiExpParallel(g, []Element{g.Generator()}, nil, 2)
		}()
	}
}

// BenchmarkPrecompExp quantifies the fixed-base ablation: Precomp.Exp vs
// plain Exp for the generator (the hot operation of every commitment).
func BenchmarkPrecompExp(b *testing.B) {
	for _, g := range allGroups() {
		g := g
		pc := NewPrecomp(g, g.Generator())
		k, _ := g.RandomScalar(nil)
		b.Run(g.Name()+"/precomp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pc.Exp(k)
			}
		})
		b.Run(g.Name()+"/plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Exp(g.Generator(), k)
			}
		})
	}
}

// BenchmarkMultiExp quantifies the batching ablation: Straus vs naive
// multi-exponentiation at the batch sizes Σ-OR verification uses.
func BenchmarkMultiExp(b *testing.B) {
	g := Schnorr2048()
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{8, 64} {
		bases := make([]Element, n)
		exps := make([]*field.Element, n)
		for i := range bases {
			bases[i] = g.Exp(g.Generator(), randScalar(g, rng))
			exps[i] = randScalar(g, rng)
		}
		b.Run("straus/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MultiExpStraus(g, bases, exps)
			}
		})
		b.Run("naive/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				multiExpNaive(g, bases, exps)
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// multiExpNaive is the reference product Π bases[i]^exps[i], one Exp and
// one Op per term.
func multiExpNaive(g Group, bases []Element, exps []*field.Element) Element {
	acc := g.Identity()
	for i := range bases {
		acc = g.Op(acc, g.Exp(bases[i], exps[i]))
	}
	return acc
}
