package morra

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/group"
	"repro/internal/pedersen"
)

var pp = pedersen.Setup(group.P256())

func TestNewPartyValidation(t *testing.T) {
	if _, err := NewParty(pp, 0, 1, 4); err == nil {
		t.Error("accepted single party")
	}
	if _, err := NewParty(pp, 2, 2, 4); err == nil {
		t.Error("accepted out-of-range index")
	}
	if _, err := NewParty(pp, -1, 2, 4); err == nil {
		t.Error("accepted negative index")
	}
	if _, err := NewParty(pp, 0, 2, 0); err == nil {
		t.Error("accepted empty batch")
	}
}

func TestHonestRun(t *testing.T) {
	for _, k := range []int{2, 3} {
		xs, err := Run(pp, k, 8, nil)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if len(xs) != 8 {
			t.Fatalf("K=%d: got %d values", k, len(xs))
		}
		for _, x := range xs {
			if x.BigInt().Cmp(pp.ScalarField().Modulus()) >= 0 {
				t.Fatal("output out of field")
			}
		}
	}
}

func TestRunBitsAreBits(t *testing.T) {
	bits, err := RunBits(pp, 2, 48, nil)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("non-bit output %d", b)
		}
		ones += int(b)
	}
	// 48 coins: expect no catastrophic skew.
	if ones < 6 || ones > 42 {
		t.Errorf("suspicious coin skew: %d/48 ones", ones)
	}
}

// TestUniformityAcrossRuns: the joint value is uniform if at least one
// party is honest; as a smoke test, check empirical bit balance over many
// small runs.
func TestUniformityAcrossRuns(t *testing.T) {
	const runs = 10
	const batch = 8
	total := 0
	ones := 0
	for i := 0; i < runs; i++ {
		bits, err := RunBits(pp, 2, batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bits {
			total++
			ones += int(b)
		}
	}
	mean := float64(ones) / float64(total)
	// 80 coins: allow wide tolerance.
	if math.Abs(mean-0.5) > 0.3 {
		t.Errorf("coin mean %v over %d coins", mean, total)
	}
}

func TestCommitRevealDiscipline(t *testing.T) {
	p, err := NewParty(pp, 0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reveal(); err == nil {
		t.Error("Reveal before Commit accepted")
	}
	if _, err := p.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(nil); err == nil {
		t.Error("double Commit accepted")
	}
	if _, err := p.Reveal(); err != nil {
		t.Error("first Reveal failed")
	}
	if _, err := p.Reveal(); err == nil {
		t.Error("double Reveal accepted")
	}
}

// cheatingRun builds a 2-party transcript where party 1 tampers in the
// given way, returning the Combine error.
func cheatingRun(t *testing.T, tamper func(c []*CommitMsg, r []*RevealMsg)) error {
	t.Helper()
	parties := make([]*Party, 2)
	commits := make([]*CommitMsg, 2)
	for k := range parties {
		p, err := NewParty(pp, k, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		parties[k] = p
		cm, err := p.Commit(nil)
		if err != nil {
			t.Fatal(err)
		}
		commits[k] = cm
	}
	reveals := make([]*RevealMsg, 2)
	for k := 1; k >= 0; k-- {
		rv, err := parties[k].Reveal()
		if err != nil {
			t.Fatal(err)
		}
		reveals[k] = rv
	}
	tamper(commits, reveals)
	_, err := Combine(pp, commits, reveals, 1)
	return err
}

func TestCheatEquivocation(t *testing.T) {
	// Party 1 reveals a different value than committed (classic
	// equivocation after seeing the other party's reveal). The binding
	// check must catch it.
	f := pp.ScalarField()
	err := cheatingRun(t, func(c []*CommitMsg, r []*RevealMsg) {
		r[1].Openings[2] = &pedersen.Opening{X: f.FromInt64(999), R: r[1].Openings[2].R}
	})
	if !errors.Is(err, ErrCheat) {
		t.Errorf("equivocation not detected: %v", err)
	}
}

func TestCheatEarlyExit(t *testing.T) {
	err := cheatingRun(t, func(c []*CommitMsg, r []*RevealMsg) {
		r[1] = r[0] // party 1's reveal is missing; duplicate of party 0 sent
	})
	if !errors.Is(err, ErrCheat) {
		t.Errorf("missing reveal not detected: %v", err)
	}
}

func TestCheatBatchTruncation(t *testing.T) {
	err := cheatingRun(t, func(c []*CommitMsg, r []*RevealMsg) {
		r[1].Openings = r[1].Openings[:2]
	})
	if !errors.Is(err, ErrCheat) {
		t.Errorf("truncated reveal not detected: %v", err)
	}
	err = cheatingRun(t, func(c []*CommitMsg, r []*RevealMsg) {
		c[1].Commitments = c[1].Commitments[:1]
	})
	if !errors.Is(err, ErrCheat) {
		t.Errorf("truncated commit not detected: %v", err)
	}
}

func TestCheatDuplicateParty(t *testing.T) {
	err := cheatingRun(t, func(c []*CommitMsg, r []*RevealMsg) {
		c[1].Party = 0
	})
	if !errors.Is(err, ErrCheat) {
		t.Errorf("duplicate party id not detected: %v", err)
	}
}

func TestCombineValidation(t *testing.T) {
	if _, err := Combine(pp, nil, nil, 1); err == nil {
		t.Error("accepted empty inputs")
	}
	p0, _ := NewParty(pp, 0, 2, 2)
	c0, _ := p0.Commit(nil)
	if _, err := Combine(pp, []*CommitMsg{c0, c0}, []*RevealMsg{}, 1); err == nil {
		t.Error("accepted commit/reveal count mismatch")
	}
}

// TestHonestMinorityStillUniform: even if K-1 parties use fixed (dishonest
// but binding-respecting) values, one honest party keeps the output
// uniform. We model the dishonest parties by deterministically biased
// contributions and check the combined coin stream is still balanced.
func TestHonestMinorityStillUniform(t *testing.T) {
	f := pp.ScalarField()
	const runs = 60
	ones := 0
	for i := 0; i < runs; i++ {
		// Dishonest party always contributes 0 (it commits honestly to 0,
		// which is allowed — the protocol only guarantees uniformity via
		// the honest party's contribution).
		zero := f.Zero()
		cBad, rBad, err := pp.Commit(zero, nil)
		if err != nil {
			t.Fatal(err)
		}
		badCommit := &CommitMsg{Party: 1, Commitments: []*pedersen.Commitment{cBad}}
		badReveal := &RevealMsg{Party: 1, Openings: []*pedersen.Opening{{X: zero, R: rBad}}}

		honest, err := NewParty(pp, 0, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := honest.Commit(nil)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := honest.Reveal()
		if err != nil {
			t.Fatal(err)
		}
		xs, err := Combine(pp, []*CommitMsg{cm, badCommit}, []*RevealMsg{rv, badReveal}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ones += int(Bits(xs)[0])
	}
	if ones < 10 || ones > 50 {
		t.Errorf("coin balance %d/60 with honest minority", ones)
	}
}

// honestBatch returns a 2-party commit/reveal exchange over batch coins.
func honestBatch(t testing.TB, batch int) ([]*CommitMsg, []*RevealMsg) {
	t.Helper()
	commits := make([]*CommitMsg, 2)
	reveals := make([]*RevealMsg, 2)
	for k := range commits {
		p, err := NewParty(pp, k, 2, batch)
		if err != nil {
			t.Fatal(err)
		}
		if commits[k], err = p.Commit(nil); err != nil {
			t.Fatal(err)
		}
		if reveals[k], err = p.Reveal(); err != nil {
			t.Fatal(err)
		}
	}
	return commits, reveals
}

// tamperOpening replaces party k's opening j with o, leaving the party's
// other openings (and every other party's) shared with the original.
func tamperOpening(reveals []*RevealMsg, k, j int, o *pedersen.Opening) []*RevealMsg {
	out := append([]*RevealMsg{}, reveals...)
	rv := *reveals[k]
	rv.Openings = append([]*pedersen.Opening{}, rv.Openings...)
	rv.Openings[j] = o
	out[k] = &rv
	return out
}

// TestCombineBlamesOneBadOpening: one tampered opening among 2¹⁰ fails the
// batched check, and the one-by-one fallback names its party and coin with
// the per-opening text, at every width. With two bad openings the first in
// party order is named.
func TestCombineBlamesOneBadOpening(t *testing.T) {
	const batch = 512 // 2 parties × 512 = 2¹⁰ openings
	commits, reveals := honestBatch(t, batch)
	f := pp.ScalarField()
	for _, bad := range []struct{ party, coin int }{{0, 0}, {1, 377}, {0, batch - 1}} {
		o := reveals[bad.party].Openings[bad.coin]
		tampered := tamperOpening(reveals, bad.party, bad.coin, &pedersen.Opening{X: o.X, R: o.R.Add(f.One())})
		for _, workers := range []int{1, 2} {
			_, err := Combine(pp, commits, tampered, workers)
			want := fmt.Sprintf("morra: party misbehaved: party %d opening %d does not match its commitment", bad.party, bad.coin)
			if !errors.Is(err, ErrCheat) || err.Error() != want {
				t.Errorf("bad opening (%d, %d), %d workers: got %v, want %q", bad.party, bad.coin, workers, err, want)
			}
		}
	}
	o := reveals[0].Openings[9]
	twice := tamperOpening(reveals, 1, 2, &pedersen.Opening{X: f.One(), R: f.One()})
	twice = tamperOpening(twice, 0, 9, &pedersen.Opening{X: o.X.Add(f.One()), R: o.R})
	if _, err := Combine(pp, commits, twice, 2); err == nil || !strings.Contains(err.Error(), "party 0 opening 9 does") {
		t.Errorf("two bad openings: got %v, want party 0 opening 9 named", err)
	}
	if _, err := Combine(pp, commits, reveals, 2); err != nil {
		t.Errorf("honest exchange refused: %v", err)
	}
}

// TestCombineRefusesMalformedOpenings: an opening that cannot be folded —
// nil, half nil, or under other parameters — is refused by name before
// any group work, and never panics.
func TestCombineRefusesMalformedOpenings(t *testing.T) {
	commits, reveals := honestBatch(t, 4)
	ff := pedersen.Setup(group.Schnorr2048())
	fx, fr := ff.ScalarField().FromInt64(1), ff.ScalarField().FromInt64(2)
	o := reveals[1].Openings[2]
	foreignCommits := append([]*CommitMsg{}, commits...)
	fc := *commits[1]
	fc.Commitments = append([]*pedersen.Commitment{}, fc.Commitments...)
	fc.Commitments[2] = ff.CommitWith(fx, fr)
	foreignCommits[1] = &fc
	for _, tc := range []struct {
		name    string
		commits []*CommitMsg
		reveals []*RevealMsg
	}{
		{"nil opening", commits, tamperOpening(reveals, 1, 2, nil)},
		{"nil X", commits, tamperOpening(reveals, 1, 2, &pedersen.Opening{R: o.R})},
		{"nil R", commits, tamperOpening(reveals, 1, 2, &pedersen.Opening{X: o.X})},
		{"foreign opening", commits, tamperOpening(reveals, 1, 2, &pedersen.Opening{X: fx, R: fr})},
		{"foreign commitment", foreignCommits, tamperOpening(reveals, 1, 2, &pedersen.Opening{X: fx, R: fr})},
		{"foreign commitment, local opening", foreignCommits, reveals},
	} {
		_, err := Combine(pp, tc.commits, tc.reveals, 2)
		if !errors.Is(err, ErrCheat) || !strings.Contains(err.Error(), "party 1 opening 2 does not match its commitment") {
			t.Errorf("%s: got %v", tc.name, err)
		}
	}
}

// BenchmarkMorraPerCoin is the cost of jointly sampling one public coin
// between prover and verifier (the per-coin slice of Table 1's Morra
// column), alone and in a batch of 256, where the batched opening check
// amortises its one multi-exponentiation.
func BenchmarkMorraPerCoin(b *testing.B) {
	for _, batch := range []int{1, 256} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunBits(pp, 2, batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/coin")
		})
	}
}
