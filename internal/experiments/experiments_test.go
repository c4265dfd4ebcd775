package experiments

import (
	mathrand "math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/group"
)

func TestParseScale(t *testing.T) {
	cases := map[string]Scale{"": Quick, "quick": Quick, "STANDARD": Standard, "Paper": Paper}
	for in, want := range cases {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("accepted unknown scale")
	}
	if Quick.String() != "quick" || Standard.String() != "standard" || Paper.String() != "paper" {
		t.Error("Scale.String round trip")
	}
	if Scale(99).String() == "" {
		t.Error("unknown scale String empty")
	}
}

// TestSweepConfigScales pins the named workloads: every experiment's scale
// presets must be populated and must not shrink when the scale grows.
func TestSweepConfigScales(t *testing.T) {
	// size reports how much of its workload an experiment runs at a scale.
	sizes := []struct {
		name string
		size func(Scale) int
	}{
		{"table1", func(s Scale) int { return table1ConfigFor(s).N }},
		{"figure3", func(s Scale) int { return len(figure3ConfigFor(s).Epsilons) }},
		{"figure4", func(s Scale) int { return len(figure4ConfigFor(s).Dimensions) }},
		{"dperror", func(s Scale) int { return len(dpErrorConfigFor(s).Populations) }},
	}
	scales := []Scale{Quick, Standard, Paper}
	for _, tc := range sizes {
		t.Run(tc.name, func(t *testing.T) {
			if n := tc.size(scales[0]); n < 1 {
				t.Fatalf("%s workload is empty at %s scale", tc.name, scales[0])
			}
			for i := 1; i < len(scales); i++ {
				lo, hi := scales[i-1], scales[i]
				if a, b := tc.size(lo), tc.size(hi); b < a {
					t.Fatalf("%s workload shrinks from %d at %s to %d at %s", tc.name, a, lo, b, hi)
				}
			}
		})
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "500 µs",
		2500 * time.Microsecond: "2.5 ms",
		1500 * time.Millisecond: "1.50 s",
	}
	for in, want := range cases {
		if got := fmtDuration(in); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestTable1SmallRun executes the full Table 1 pipeline at a tiny size and
// checks the structural expectations: all stages measured, the final check
// passes (no error), and the proof stages dominate the aggregation stage —
// the paper's qualitative finding.
func TestTable1SmallRun(t *testing.T) {
	res, err := Table1(Table1Config{N: 2000, Coins: 16, Group: group.Schnorr2048()})
	if err != nil {
		t.Fatal(err)
	}
	if res.SigmaProof <= 0 || res.SigmaVerify <= 0 || res.Morra <= 0 || res.Check <= 0 {
		t.Errorf("unmeasured stage: %+v", res)
	}
	if res.SigmaProof < res.Aggregation {
		t.Errorf("Σ-proof (%v) should dominate aggregation (%v)", res.SigmaProof, res.Aggregation)
	}
	out := res.Format()
	for _, want := range []string{"Table 1", "Σ-proof", "Morra", "Check"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Validation(t *testing.T) {
	if _, err := Table1(Table1Config{N: 0, Coins: 8}); err == nil {
		t.Error("accepted zero clients")
	}
	if _, err := Table1(Table1Config{N: 10, Coins: 0}); err == nil {
		t.Error("accepted zero coins")
	}
}

// TestFigure3ShapeInverseSquare: nb must scale as 1/ε² and the extrapolated
// total proof time must grow as ε shrinks.
func TestFigure3ShapeInverseSquare(t *testing.T) {
	res, err := Figure3(Figure3Config{
		Epsilons:  []float64{2.0, 1.0},
		Delta:     1e-6,
		SampleCap: 8,
		Groups:    []group.Group{group.Schnorr2048()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
	hi, lo := res.Points[0], res.Points[1] // ε=2.0 then ε=1.0
	ratio := float64(lo.Coins) / float64(hi.Coins)
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("nb ratio %v, want ≈ 4 (1/ε² scaling)", ratio)
	}
	if lo.Prove <= hi.Prove {
		t.Errorf("total prove time must grow as ε shrinks: %v vs %v", hi.Prove, lo.Prove)
	}
	if !strings.Contains(res.Format(), "Figure 3") {
		t.Error("Format header missing")
	}
}

func TestFigure3Validation(t *testing.T) {
	if _, err := Figure3(Figure3Config{}); err == nil {
		t.Error("accepted empty sweep")
	}
	if _, err := Figure3(Figure3Config{Epsilons: []float64{1}}); err == nil {
		t.Error("accepted empty group list")
	}
}

// countingGroup counts the Exp calls made on a group: every one is a
// variable-base exponentiation, since the generators' powers go through
// pedersen's fixed-base tables.
type countingGroup struct {
	group.Group
	exps int
}

func (g *countingGroup) Exp(a group.Element, k *field.Element) group.Element {
	g.exps++
	return g.Group.Exp(a, k)
}

// TestFigure4ShapeSigmaSlower: Σ-OR validation must be substantially slower
// than sketching at every dimension (the paper reports roughly an order of
// magnitude), and Σ-OR verification must grow with M.
func TestFigure4ShapeSigmaSlower(t *testing.T) {
	res, err := Figure4(Figure4Config{Dimensions: []int{2, 8}, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Ratio < 3 {
			t.Errorf("M=%d: Σ-OR/sketch ratio %.1f, expected the public-key approach to be much slower", p.M, p.Ratio)
		}
	}
	// The growth is counted, not timed: verifying a one-hot proof makes two
	// variable-base exponentiations per coordinate, and nothing else in the
	// run makes any (ProveBit and the commitments use fixed-base tables).
	for _, m := range []int{2, 8} {
		cg := &countingGroup{Group: group.Schnorr2048()}
		if _, err := Figure4(Figure4Config{Dimensions: []int{m}, Group: cg}); err != nil {
			t.Fatal(err)
		}
		if cg.exps != 2*m {
			t.Errorf("M=%d: the run made %d variable-base exponentiations, want 2M = %d", m, cg.exps, 2*m)
		}
	}
	if !strings.Contains(res.Format(), "Figure 4") {
		t.Error("Format header missing")
	}
}

func TestFigure4Validation(t *testing.T) {
	if _, err := Figure4(Figure4Config{}); err == nil {
		t.Error("accepted empty sweep")
	}
}

// TestTable2Matrix executes the property matrix and checks the headline
// claim: our protocol is the only all-✓ row, and the sketch baseline fails
// active security and auditability via the Figure 1 attacks.
func TestTable2Matrix(t *testing.T) {
	res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, row := range res.Rows {
		byName[row.Protocol] = row
	}
	ours, ok := byName["ΠBin (this work)"]
	if !ok {
		t.Fatal("missing our row")
	}
	if !(ours.ActiveSecurity && ours.CentralDP && ours.Auditable && ours.ZeroLeakage) {
		t.Errorf("our protocol is not all-✓: %+v", ours)
	}
	sk := byName["PRIO/Poplar sketch"]
	if sk.ActiveSecurity || sk.Auditable {
		t.Errorf("sketch baseline should fail active security and auditability: %+v", sk)
	}
	rr := byName["Randomized response (LDP)"]
	if rr.CentralDP {
		t.Error("randomized response should not have central DP error")
	}
	out := res.Format()
	for _, want := range []string{"Table 2", "✓", "✗", "Evidence"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

// TestDPErrorShape: central error flat, local error growing. The draws come
// from a fixed stream, so the verdict does not depend on the run.
func TestDPErrorShape(t *testing.T) {
	res, err := DPError(DPErrorConfig{Epsilon: 1, Delta: 1e-6, Populations: []int{1000, 16000}, Trials: 10, Rand: mathrand.New(mathrand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	small, big := res.Points[0], res.Points[1]
	if big.LocalError < 2*small.LocalError {
		t.Errorf("local error did not grow √n-like: %v -> %v", small.LocalError, big.LocalError)
	}
	if big.CentralError > 3*small.CentralError+1 {
		t.Errorf("central error grew with n: %v -> %v", small.CentralError, big.CentralError)
	}
	if !strings.Contains(res.Format(), "DP-Error") {
		t.Error("Format header missing")
	}
}

func TestDPErrorValidation(t *testing.T) {
	if _, err := DPError(DPErrorConfig{Trials: 0, Populations: []int{10}}); err == nil {
		t.Error("accepted zero trials")
	}
}

func TestMicrobench(t *testing.T) {
	res, err := Microbench()
	if err != nil {
		t.Fatal(err)
	}
	if res.SchnorrExp <= 0 || res.CurveExp <= 0 {
		t.Errorf("unmeasured exponentiation: %+v", res)
	}
	if !strings.Contains(res.Format(), "microbenchmark") {
		t.Error("Format header missing")
	}
}
