package pedersen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/group"
)

// DecodeCommitment parses a canonical encoding through p's group.
func (p *Params) DecodeCommitment(b []byte) (*Commitment, error) {
	return p.DecodeCommitmentWith(p.grp, b)
}

func testParams() []*Params {
	return []*Params{Setup(group.P256()), Setup(group.Schnorr2048())}
}

func randElem(f *field.Field, rng *rand.Rand) *field.Element {
	buf := make([]byte, f.ByteLen()+8)
	rng.Read(buf)
	return f.Reduce(buf)
}

func TestCommitVerify(t *testing.T) {
	for _, pp := range testParams() {
		f := pp.ScalarField()
		x := f.FromInt64(42)
		c, r, err := pp.Commit(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !pp.Verify(c, x, r) {
			t.Errorf("%s: honest opening rejected", pp.Group().Name())
		}
		if pp.Verify(c, f.FromInt64(43), r) {
			t.Errorf("%s: wrong message accepted", pp.Group().Name())
		}
		if pp.Verify(c, x, r.Add(f.One())) {
			t.Errorf("%s: wrong randomness accepted", pp.Group().Name())
		}
		if pp.Verify(nil, x, r) {
			t.Errorf("%s: nil commitment accepted", pp.Group().Name())
		}
	}
}

// TestHomomorphism checks equation (2): Com(x1,r1) ⊗ Com(x2,r2) =
// Com(x1+x2, r1+r2), plus the derived Sub identity.
func TestHomomorphism(t *testing.T) {
	for _, pp := range testParams() {
		pp := pp
		f := pp.ScalarField()
		fn := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x1, r1 := randElem(f, rng), randElem(f, rng)
			x2, r2 := randElem(f, rng), randElem(f, rng)
			c1 := pp.CommitWith(x1, r1)
			c2 := pp.CommitWith(x2, r2)
			if !c1.Add(c2).Equal(pp.CommitWith(x1.Add(x2), r1.Add(r2))) {
				return false
			}
			return c1.Sub(c2).Equal(pp.CommitWith(x1.Sub(x2), r1.Sub(r2)))
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 6}); err != nil {
			t.Errorf("%s: %v", pp.Group().Name(), err)
		}
	}
}

// TestHidingShape: commitments to the same message with different randomness
// differ, and commitments to different messages are not trivially related.
// (Perfect hiding itself is information-theoretic and not directly testable;
// this guards the implementation against accidentally ignoring randomness.)
func TestHidingShape(t *testing.T) {
	pp := Setup(group.P256())
	f := pp.ScalarField()
	x := f.FromInt64(7)
	c1, _, _ := pp.Commit(x, nil)
	c2, _, _ := pp.Commit(x, nil)
	if c1.Equal(c2) {
		t.Error("two commitments with fresh randomness collided")
	}
}

func TestBindingRequiresDLBreak(t *testing.T) {
	// Finding a second opening of Com(x, r) means solving g^x h^r = g^x' h^r'
	// i.e. computing log_g h. We cannot test the assumption, but we verify
	// that the obvious algebraic cheats fail: any (x', r') with x' != x and
	// r' = r does not verify (covered in TestCommitVerify) and the flip
	// identity used by ΠBin holds exactly:
	// Com(1,0) ⊗ Com(v,s)^{-1} = Com(1-v, -s)  (Line 12 of Figure 2).
	for _, pp := range testParams() {
		f := pp.ScalarField()
		v := f.One()
		s := f.MustRand(nil)
		c := pp.CommitWith(v, s)
		flipped := pp.OneNoRandomness().Sub(c)
		if !pp.Verify(flipped, f.One().Sub(v), s.Neg()) {
			t.Errorf("%s: flip identity broken", pp.Group().Name())
		}
	}
}

func TestZeroAndSum(t *testing.T) {
	pp := Setup(group.P256())
	f := pp.ScalarField()
	if !pp.Zero().Equal(pp.CommitWith(f.Zero(), f.Zero())) {
		t.Error("Zero() != Com(0,0)")
	}
	var cs []*Commitment
	var xs, rs []*field.Element
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		x, r := randElem(f, rng), randElem(f, rng)
		cs = append(cs, pp.CommitWith(x, r))
		xs = append(xs, x)
		rs = append(rs, r)
	}
	want := pp.CommitWith(f.Sum(xs...), f.Sum(rs...))
	if !Sum(pp, cs...).Equal(want) {
		t.Error("Sum does not aggregate homomorphically")
	}
	if !Sum(pp).Equal(pp.Zero()) {
		t.Error("empty Sum should be Zero")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, pp := range testParams() {
		c, _, err := pp.Commit(pp.ScalarField().FromInt64(99), nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := pp.DecodeCommitment(c.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", pp.Group().Name(), err)
		}
		if !back.Equal(c) {
			t.Errorf("%s: round trip failed", pp.Group().Name())
		}
		if _, err := pp.DecodeCommitment([]byte{1, 2, 3}); err == nil {
			t.Errorf("%s: accepted junk encoding", pp.Group().Name())
		}
	}
}

func TestVectorCommitAndCheckOpenings(t *testing.T) {
	pp := Setup(group.P256())
	f := pp.ScalarField()
	xs := []*field.Element{f.FromInt64(0), f.FromInt64(1), f.FromInt64(0)}
	cs, os, err := pp.VectorCommit(xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.CheckOpenings(cs, os); err != nil {
		t.Fatalf("honest openings rejected: %v", err)
	}
	// Tamper with one opening.
	os[1] = &Opening{X: f.FromInt64(0), R: os[1].R}
	if err := pp.CheckOpenings(cs, os); err == nil {
		t.Error("tampered opening accepted")
	}
	if err := pp.CheckOpenings(cs, os[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestOneNoRandomness(t *testing.T) {
	pp := Setup(group.Schnorr2048())
	f := pp.ScalarField()
	if !pp.OneNoRandomness().Equal(pp.CommitWith(f.One(), f.Zero())) {
		t.Error("OneNoRandomness != Com(1,0)")
	}
}

// TestParamsEquality: structurally identical parameters (e.g. re-derived by
// an auditor) are interchangeable, while parameters over different groups
// are not.
func TestParamsEquality(t *testing.T) {
	p1 := Setup(group.P256())
	p2 := Setup(group.P256()) // distinct instance, same derivation
	if !p1.Equal(p2) {
		t.Error("re-derived params must be Equal")
	}
	c1, r, _ := p1.Commit(p1.ScalarField().FromInt64(5), nil)
	if !p2.Verify(c1, p2.ScalarField().FromInt64(5), r) {
		t.Error("auditor-side params rejected a valid commitment")
	}
	c2, _, _ := p2.Commit(p2.ScalarField().One(), nil)
	c1.Add(c2) // must not panic
	if p1.Equal(Setup(group.Schnorr2048())) {
		t.Error("params over different groups compared Equal")
	}
	var nilP *Params
	if p1.Equal(nilP) {
		t.Error("nil params compared Equal")
	}
}

func TestMismatchedParamsPanics(t *testing.T) {
	p1 := Setup(group.P256())
	p2 := Setup(group.Schnorr2048())
	c1, _, _ := p1.Commit(p1.ScalarField().One(), nil)
	c2, _, _ := p2.Commit(p2.ScalarField().One(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c1.Add(c2)
}

func BenchmarkCommit(b *testing.B) {
	for _, pp := range testParams() {
		pp := pp
		b.Run(pp.Group().Name(), func(b *testing.B) {
			x := pp.ScalarField().FromInt64(1)
			r := pp.ScalarField().MustRand(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pp.CommitWith(x, r)
			}
		})
	}
}

// TestFastCommitMatchesSlow cross-checks the fixed-base accelerated
// commitment path against the plain double exponentiation.
func TestFastCommitMatchesSlow(t *testing.T) {
	for _, pp := range testParams() {
		f := pp.ScalarField()
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < 6; i++ {
			x, r := randElem(f, rng), randElem(f, rng)
			if !pp.CommitWith(x, r).Equal(pp.CommitWithSlow(x, r)) {
				t.Fatalf("%s: fast and slow commitments differ", pp.Group().Name())
			}
		}
	}
}

// TestExpHMatchesExp cross-checks the fixed-base h-power against a plain
// exponentiation of H, including the edge scalars 0, 1 and -1.
func TestExpHMatchesExp(t *testing.T) {
	for _, pp := range testParams() {
		pp := pp
		t.Run(pp.Group().Name(), func(t *testing.T) {
			g, f := pp.Group(), pp.ScalarField()
			if !g.Equal(pp.G(), g.Generator()) || !g.Equal(pp.H(), g.AltGenerator()) {
				t.Fatal("G and H are not the group's generator pair")
			}
			rng := rand.New(rand.NewSource(32))
			ks := []*field.Element{f.Zero(), f.One(), f.One().Neg()}
			for i := 0; i < 6; i++ {
				ks = append(ks, randElem(f, rng))
			}
			for _, k := range ks {
				if !g.Equal(pp.ExpH(k), g.Exp(pp.H(), k)) {
					t.Fatalf("ExpH(%v) != H^k", k)
				}
			}
			if !g.Equal(pp.ExpH(f.Zero()), g.Identity()) {
				t.Fatal("ExpH(0) is not the identity")
			}
		})
	}
}

// TestCommitmentAccessors: a commitment reports the parameters it was made
// under and the group element g^x·h^r, and prints as that element.
func TestCommitmentAccessors(t *testing.T) {
	for _, pp := range testParams() {
		g, f := pp.Group(), pp.ScalarField()
		x, r := f.FromInt64(5), f.FromInt64(9)
		c := pp.CommitWith(x, r)
		if c.Params() != pp {
			t.Errorf("%s: Params() is not the committing parameter set", g.Name())
		}
		want := g.Op(g.Exp(pp.G(), x), pp.ExpH(r))
		if !g.Equal(c.Element(), want) {
			t.Errorf("%s: Element() is not g^x·h^r", g.Name())
		}
		if s := c.String(); s != "Com"+want.String() {
			t.Errorf("%s: commitment prints as %q", g.Name(), s)
		}
	}
}

// BenchmarkCommitAblation quantifies the fixed-base precomputation win on
// the commitment hot path.
func BenchmarkCommitAblation(b *testing.B) {
	pp := Setup(group.Schnorr2048())
	f := pp.ScalarField()
	x, r := f.One(), f.MustRand(nil)
	pp.CommitWith(x, r) // warm the tables
	b.Run("precomp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.CommitWith(x, r)
		}
	})
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.CommitWithSlow(x, r)
		}
	})
}

// CommitWithSlow is CommitWith without the fixed-base acceleration: the
// plain double exponentiation g^x·h^rx, the reference for the
// precomputation.
func (p *Params) CommitWithSlow(x, rx *field.Element) *Commitment {
	return &Commitment{pp: p, e: p.grp.Op(p.grp.Exp(p.g, x), p.grp.Exp(p.h, rx))}
}

// Equal reports whether two commitments are the same group element.
func (c *Commitment) Equal(o *Commitment) bool {
	if c == nil || o == nil {
		return c == o
	}
	return c.pp.Equal(o.pp) && c.pp.grp.Equal(c.e, o.e)
}
