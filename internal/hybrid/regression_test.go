package hybrid

import (
	"testing"

	"repro/internal/dp"
)

// Regression: the 1-bin path used to skip sketch validation entirely (and
// clamp any nonzero choice to 1), so a malformed degenerate client was
// absorbed unchecked. Now the claimed bit is shared as-is and checked with
// the quadratic sketch test, so the poisoned contribution is dropped.
func TestOneBinMalformedClientRejected(t *testing.T) {
	cfg := testConfig(1, 8)
	// Two honest 1-votes plus one client claiming the value 1000. If the
	// malformed client were absorbed, raw ≥ 1002; with it dropped,
	// raw = 2 + 2×Bin(8, ½) ≤ 18.
	rel, err := Run(cfg, []int{1, 1000, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Raw[0] < 2 || rel.Raw[0] > 18 {
		t.Errorf("raw %d outside the honest-only noise envelope [2, 18]: malformed client absorbed?", rel.Raw[0])
	}
}

// Regression: Run used to hand-compute the debias mean instead of sharing
// dp's formula. The release estimate must match dp.DebiasBinomial exactly,
// across coin counts.
func TestDebiasParityWithDP(t *testing.T) {
	for _, coins := range []int{4, 8, 16, 31, 64} {
		cfg := testConfig(1, coins)
		rel, err := Run(cfg, []int{1, 0, 1}, nil, nil)
		if err != nil {
			t.Fatalf("coins=%d: %v", coins, err)
		}
		want := dp.DebiasBinomial(rel.Raw[0], coins, 2)
		if rel.Estimate[0] != want {
			t.Errorf("coins=%d: estimate %v, dp.DebiasBinomial says %v", coins, rel.Estimate[0], want)
		}
	}
}
