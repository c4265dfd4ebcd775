package share

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

var (
	fSmall = mustField(big.NewInt(101))
	// f256 is the P-256 scalar field.
	f256 = mustField(elliptic.P256().Params().N)
)

func mustField(q *big.Int) *field.Field {
	f, err := field.New(q)
	if err != nil {
		panic(err)
	}
	return f
}

func randElem(f *field.Field, rng *rand.Rand) *field.Element {
	buf := make([]byte, f.ByteLen()+8)
	rng.Read(buf)
	return f.Reduce(buf)
}

func TestAdditiveRoundTrip(t *testing.T) {
	for _, f := range []*field.Field{fSmall, f256} {
		f := f
		fn := func(seed int64, nRaw uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			n := int(nRaw%8) + 1
			x := randElem(f, rng)
			shares, err := Additive(x, n, nil)
			if err != nil {
				return false
			}
			if len(shares) != n {
				return false
			}
			return f.Sum(shares...).Equal(x)
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestAdditiveSingleShareIsSecret(t *testing.T) {
	x := f256.FromInt64(77)
	shares, err := Additive(x, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !shares[0].Equal(x) {
		t.Error("K=1 sharing (trusted curator mode) must be the identity")
	}
}

func TestAdditiveInvalidCount(t *testing.T) {
	if _, err := Additive(f256.One(), 0, nil); err == nil {
		t.Error("accepted n=0")
	}
}

// TestAdditiveHiding: a proper subset of shares is (jointly) uniform; as a
// statistical smoke test over the small field, verify that the first share
// of a sharing of 0 and of 50 have indistinguishable empirical frequencies.
func TestAdditiveHidingSmoke(t *testing.T) {
	const trials = 3000
	counts := make(map[int64][2]int)
	for _, tc := range []struct {
		idx int
		x   *field.Element
	}{{0, fSmall.FromInt64(0)}, {1, fSmall.FromInt64(50)}} {
		for i := 0; i < trials; i++ {
			shares, err := Additive(tc.x, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			v, _ := shares[0].Int64()
			c := counts[v]
			c[tc.idx]++
			counts[v] = c
		}
	}
	// Chi-square-ish sanity: every residue should appear for both secrets;
	// gross skew would indicate the share depends on the secret.
	for v, c := range counts {
		if c[0] > 0 && c[1] == 0 && c[0] > 20 {
			t.Errorf("residue %d appears %d times for x=0 but never for x=50", v, c[0])
		}
	}
}

// TestAdditiveLinearity: sharing is linear — share-wise sums reconstruct to
// the sum of secrets. This is the property ΠBin relies on ("By linearity of
// secret-sharing, Σ_k y_k = M_Bin(X, Q)").
func TestAdditiveLinearity(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randElem(f256, rng)
		y := randElem(f256, rng)
		sx, _ := Additive(x, 4, nil)
		sy, _ := Additive(y, 4, nil)
		sum := make([]*field.Element, len(sx))
		for k := range sx {
			sum[k] = sx[k].Add(sy[k])
		}
		return f256.Sum(sum...).Equal(x.Add(y))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdditiveShare(b *testing.B) {
	x := f256.FromInt64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Additive(x, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}
