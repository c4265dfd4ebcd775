package sketch

import (
	"testing"

	"repro/internal/field"
	"repro/internal/group"
)

var f = group.P256().ScalarField()

func params(m int) Params { return Params{F: f, M: m} }

func TestParamsValidate(t *testing.T) {
	if (Params{F: nil, M: 3}).Validate() == nil {
		t.Error("accepted nil field")
	}
	if (Params{F: f, M: 0}).Validate() == nil {
		t.Error("accepted zero bins")
	}
}

func TestHonestOneHotAccepted(t *testing.T) {
	for _, m := range []int{1, 2, 8, 64} {
		p := params(m)
		for hot := 0; hot < m && hot < 4; hot++ {
			cs, err := ShareOneHot(p, hot, nil)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := ValidateClient(p, cs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("M=%d hot=%d: honest client rejected", m, hot)
			}
		}
	}
}

func TestShareOneHotValidation(t *testing.T) {
	p := params(4)
	if _, err := ShareOneHot(p, -1, nil); err == nil {
		t.Error("accepted negative hot index")
	}
	if _, err := ShareOneHot(p, 4, nil); err == nil {
		t.Error("accepted out-of-range hot index")
	}
}

func TestIllegalInputsRejected(t *testing.T) {
	p := params(4)
	cases := map[string][]*field.Element{
		"two-hot":  {f.One(), f.One(), f.Zero(), f.Zero()},
		"all-zero": {f.Zero(), f.Zero(), f.Zero(), f.Zero()},
		"value-2":  {f.FromInt64(2), f.Zero(), f.Zero(), f.Zero()},
		"value-5":  {f.FromInt64(5), f.Zero(), f.Zero(), f.Zero()},
		"negative": {f.One().Neg(), f.One(), f.One(), f.Zero()},
	}
	for name, vec := range cases {
		cs, err := ShareVector(p, vec, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := ValidateClient(p, cs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%s: illegal input accepted by honest servers", name)
		}
	}
}

func TestShareVectorLengthValidation(t *testing.T) {
	if _, err := ShareVector(params(3), []*field.Element{f.One()}, nil); err == nil {
		t.Error("accepted short vector")
	}
}

// TestExclusionAttackSucceeds demonstrates Figure 1(a): a single corrupted
// server forces an honest client to fail validation. This is the attack the
// verifiable protocol prevents (see internal/vdp's drop-client tests).
func TestExclusionAttackSucceeds(t *testing.T) {
	p := params(8)
	cs, err := ShareOneHot(p, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ExclusionAttack(p, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accepted {
		t.Error("exclusion attack failed: honest client was still accepted (prob ≈ M/q)")
	}
}

// TestCollusionAttackSucceeds demonstrates Figure 1(b): a client-server
// coalition gets an arbitrarily illegal input past the sketch check.
func TestCollusionAttackSucceeds(t *testing.T) {
	p := params(4)
	illegal := []*field.Element{f.FromInt64(1000), f.Zero(), f.Zero(), f.Zero()} // 1000 votes
	accepted, err := CollusionAttack(p, illegal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !accepted {
		t.Error("collusion attack failed: forged sketches did not validate")
	}
}

func TestComputeSketchLengthValidation(t *testing.T) {
	p := params(3)
	ch, err := NewChallenge(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeSketch(ch, []*field.Element{f.One()}); err == nil {
		t.Error("accepted mismatched share vector")
	}
}

// BenchmarkSketchValidate measures the per-client sketch validation cost as
// a function of dimension — the PRIO/Poplar series of Figure 4.
func BenchmarkSketchValidate(b *testing.B) {
	for _, m := range []int{2, 16, 128, 1024} {
		m := m
		b.Run(sizeName(m), func(b *testing.B) {
			p := params(m)
			cs, err := ShareOneHot(p, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := ValidateClient(p, cs, nil)
				if err != nil || !ok {
					b.Fatal("validation failed")
				}
			}
		})
	}
}

func sizeName(m int) string {
	return "M=" + itoa(m)
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
