package sketch

import (
	"math/big"
	"testing"

	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/pedersen"
)

// Regression: ComputeSketch used to index shares[0] before checking for
// emptiness and panicked on empty share/challenge vectors.
func TestComputeSketchEmptyVectors(t *testing.T) {
	f := pedersen.Setup(group.P256()).ScalarField()
	p := Params{F: f, M: 2}
	ch, err := NewChallenge(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeSketch(ch, nil); err == nil {
		t.Error("empty share vector accepted")
	}
	if _, err := ComputeSketch(&Challenge{}, nil); err == nil {
		t.Error("empty challenge and share vectors accepted")
	}
	if _, err := ComputeSketch(&Challenge{}, []*field.Element{f.One()}); err == nil {
		t.Error("empty challenge accepted")
	}
}

// Regression: VerifySketches used to ignore its field parameter entirely, so
// sketches from a different field verified silently.
func TestVerifySketchesFieldMismatch(t *testing.T) {
	f := pedersen.Setup(group.P256()).ScalarField()
	other, err := field.New(big.NewInt(101))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{F: other, M: 3}
	cs, err := ShareOneHot(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChallenge(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := ComputeSketch(ch, cs.Shares[0])
	if err != nil {
		t.Fatal(err)
	}
	s1, err := ComputeSketch(ch, cs.Shares[1])
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := VerifySketches(other, s0, s1); err != nil || !ok {
		t.Fatalf("honest sketch over the declared field rejected: ok=%v err=%v", ok, err)
	}
	if _, err := VerifySketches(f, s0, s1); err == nil {
		t.Error("sketches over the wrong field verified without error")
	}
	if _, err := VerifySketches(nil, s0, s1); err == nil {
		t.Error("nil field accepted")
	}
	if _, err := VerifySketches(f, nil, s1); err == nil {
		t.Error("nil sketch accepted")
	}
}

// ValidateClientBit applies only the quadratic part of the sketch test, so
// an honest 0 bit passes (the one-hot w = 1 test would reject it) while any
// value outside {0,1} fails.
func TestValidateClientBit(t *testing.T) {
	f := pedersen.Setup(group.P256()).ScalarField()
	p := Params{F: f, M: 1}
	for _, v := range []int64{0, 1} {
		cs, err := ShareVector(p, []*field.Element{f.FromInt64(v)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := ValidateClientBit(p, cs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("honest bit %d rejected", v)
		}
	}
	for _, v := range []int64{-1, 2, 5, 1000} {
		cs, err := ShareVector(p, []*field.Element{f.FromInt64(v)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := ValidateClientBit(p, cs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("malformed bit value %d accepted", v)
		}
	}
	if _, err := ValidateClientBit(Params{F: f, M: 2}, nil, nil); err == nil {
		t.Error("ValidateClientBit accepted M = 2")
	}
}
