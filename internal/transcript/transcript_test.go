package transcript

import (
	"crypto/elliptic"
	"math/big"
	"testing"

	"repro/internal/field"
)

// f is the P-256 scalar field.
var f = mustField(elliptic.P256().Params().N)

func mustField(q *big.Int) *field.Field {
	f, err := field.New(q)
	if err != nil {
		panic(err)
	}
	return f
}

func TestDeterministic(t *testing.T) {
	mk := func() *field.Element {
		tr := New("test")
		tr.Append("a", []byte("hello"))
		tr.Append("b", f.FromInt64(7).Bytes())
		return tr.Challenge("c", f)
	}
	if !mk().Equal(mk()) {
		t.Error("identical transcripts produced different challenges")
	}
}

func TestDomainSeparation(t *testing.T) {
	t1 := New("proto-1")
	t2 := New("proto-2")
	t1.Append("a", []byte("x"))
	t2.Append("a", []byte("x"))
	if t1.Challenge("c", f).Equal(t2.Challenge("c", f)) {
		t.Error("different domains produced equal challenges")
	}
}

func TestLabelSeparation(t *testing.T) {
	t1 := New("p")
	t2 := New("p")
	t1.Append("label1", []byte("x"))
	t2.Append("label2", []byte("x"))
	if t1.Challenge("c", f).Equal(t2.Challenge("c", f)) {
		t.Error("different labels produced equal challenges")
	}
}

// TestFramingUnambiguous: moving a byte across a message boundary must
// change the challenge, i.e. ("ab","c") != ("a","bc").
func TestFramingUnambiguous(t *testing.T) {
	t1 := New("p")
	t2 := New("p")
	t1.Append("m", []byte("ab"))
	t1.Append("m", []byte("c"))
	t2.Append("m", []byte("a"))
	t2.Append("m", []byte("bc"))
	if t1.Challenge("c", f).Equal(t2.Challenge("c", f)) {
		t.Error("framing is ambiguous across message boundaries")
	}
}

func TestOrderMatters(t *testing.T) {
	t1 := New("p")
	t2 := New("p")
	t1.Append("m", []byte("a"))
	t1.Append("m", []byte("b"))
	t2.Append("m", []byte("b"))
	t2.Append("m", []byte("a"))
	if t1.Challenge("c", f).Equal(t2.Challenge("c", f)) {
		t.Error("message order does not affect challenge")
	}
}

func TestSuccessiveChallengesDiffer(t *testing.T) {
	tr := New("p")
	tr.Append("m", []byte("x"))
	c1 := tr.Challenge("c", f)
	c2 := tr.Challenge("c", f)
	if c1.Equal(c2) {
		t.Error("successive squeezes returned the same challenge")
	}
}

func TestChallengeInField(t *testing.T) {
	small := mustField(big.NewInt(101))
	tr := New("p")
	for i := 0; i < 50; i++ {
		c := tr.Challenge("c", small)
		if c.BigInt().Cmp(small.Modulus()) >= 0 {
			t.Fatal("challenge out of field range")
		}
	}
}
