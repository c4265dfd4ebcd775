package sigma

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/pedersen"
)

var (
	ppEC  = pedersen.Setup(group.P256())
	ppFF  = pedersen.Setup(group.Schnorr2048())
	both  = []*pedersen.Params{ppEC, ppFF}
	ctxTx = []byte("session-1")
)

func randElem(f *field.Field, rng *rand.Rand) *field.Element {
	buf := make([]byte, f.ByteLen()+8)
	rng.Read(buf)
	return f.Reduce(buf)
}

// --- DLog proofs ---

func TestDLogCompleteness(t *testing.T) {
	for _, pp := range both {
		g := pp.Group()
		f := pp.ScalarField()
		w := f.MustRand(nil)
		x := g.Exp(pp.H(), w)
		p, err := ProveDLog(g, pp.H(), x, w, ctxTx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyDLog(g, pp.H(), x, p, ctxTx); err != nil {
			t.Errorf("%s: honest proof rejected: %v", g.Name(), err)
		}
	}
}

func TestDLogRejectsWrongStatement(t *testing.T) {
	g := ppEC.Group()
	f := ppEC.ScalarField()
	w := f.MustRand(nil)
	x := g.Exp(ppEC.H(), w)
	p, _ := ProveDLog(g, ppEC.H(), x, w, ctxTx, nil)
	// Different statement.
	other := g.Exp(ppEC.H(), w.Add(f.One()))
	if VerifyDLog(g, ppEC.H(), other, p, ctxTx) == nil {
		t.Error("proof accepted for wrong statement")
	}
	// Different context.
	if VerifyDLog(g, ppEC.H(), x, p, []byte("other-session")) == nil {
		t.Error("proof accepted under wrong context")
	}
	// Tampered response.
	bad := *p
	bad.Z = p.Z.Add(f.One())
	if VerifyDLog(g, ppEC.H(), x, &bad, ctxTx) == nil {
		t.Error("tampered proof accepted")
	}
	if VerifyDLog(g, ppEC.H(), x, nil, ctxTx) == nil {
		t.Error("nil proof accepted")
	}
}

// TestDLogSpecialSoundness: two accepting transcripts sharing a first
// message but with different challenges yield the witness. This is the
// property that makes the proof a proof *of knowledge*.
func TestDLogSpecialSoundness(t *testing.T) {
	g := ppEC.Group()
	f := ppEC.ScalarField()
	w := f.MustRand(nil)
	// Build two transcripts manually with the same announcement.
	tr := f.MustRand(nil) // prover nonce
	a := g.Exp(ppEC.H(), tr)
	e1 := f.MustRand(nil)
	e2 := f.MustRand(nil)
	for e2.Equal(e1) {
		e2 = f.MustRand(nil)
	}
	p1 := &DLogProof{A: a, E: e1, Z: tr.Add(e1.Mul(w))}
	p2 := &DLogProof{A: a, E: e2, Z: tr.Add(e2.Mul(w))}
	got, err := ExtractDLog(g, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(w) {
		t.Errorf("extracted %v, want %v", got, w)
	}
	if _, err := ExtractDLog(g, p1, p1); err == nil {
		t.Error("extraction from equal challenges should fail")
	}
}

// --- Representation proofs ---

func TestRepCompleteness(t *testing.T) {
	for _, pp := range both {
		f := pp.ScalarField()
		x, r := f.FromInt64(37), f.MustRand(nil)
		c := pp.CommitWith(x, r)
		p, err := ProveRep(pp, c, x, r, ctxTx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRep(pp, c, p, ctxTx); err != nil {
			t.Errorf("%s: honest rep proof rejected: %v", pp.Group().Name(), err)
		}
	}
}

func TestRepSoundnessShape(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	x, r := f.FromInt64(37), f.MustRand(nil)
	c := pp.CommitWith(x, r)
	p, _ := ProveRep(pp, c, x, r, ctxTx, nil)
	other := pp.CommitWith(x.Add(f.One()), r)
	if VerifyRep(pp, other, p, ctxTx) == nil {
		t.Error("rep proof accepted for different commitment")
	}
	bad := *p
	bad.Zx = p.Zx.Add(f.One())
	if VerifyRep(pp, c, &bad, ctxTx) == nil {
		t.Error("tampered rep proof accepted")
	}
}

// --- Bit (Σ-OR) proofs ---

func TestBitCompletenessBothBranches(t *testing.T) {
	for _, pp := range both {
		f := pp.ScalarField()
		for _, xv := range []int64{0, 1} {
			x := f.FromInt64(xv)
			r := f.MustRand(nil)
			c := pp.CommitWith(x, r)
			p, err := ProveBit(pp, c, x, r, ctxTx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyBit(pp, c, p, ctxTx); err != nil {
				t.Errorf("%s: honest bit=%d proof rejected: %v", pp.Group().Name(), xv, err)
			}
		}
	}
}

func TestProveBitRejectsNonBit(t *testing.T) {
	f := ppEC.ScalarField()
	x := f.FromInt64(2)
	r := f.MustRand(nil)
	c := ppEC.CommitWith(x, r)
	if _, err := ProveBit(ppEC, c, x, r, ctxTx, nil); err == nil {
		t.Error("ProveBit accepted non-bit witness")
	}
}

// TestBitSoundnessCheatingProver simulates the soundness attack from the
// paper's proof of Theorem 4.1 case (a): a prover commits to a value
// outside {0,1} and tries to pass the OR check. Without knowledge of either
// branch witness, any proof it can assemble (e.g. by reusing an honest proof
// for a different commitment, or by forging responses) must fail.
func TestBitSoundnessCheatingProver(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	// Commitment to 2 — not in L_Bit.
	x2, r := f.FromInt64(2), f.MustRand(nil)
	cBad := pp.CommitWith(x2, r)

	// Strategy 1: take an honest proof for a commitment to 1 and present it
	// for cBad.
	x1 := f.One()
	c1 := pp.CommitWith(x1, r)
	honest, _ := ProveBit(pp, c1, x1, r, ctxTx, nil)
	if VerifyBit(pp, cBad, honest, ctxTx) == nil {
		t.Error("transplanted proof accepted for non-bit commitment")
	}

	// Strategy 2: run the prover code pretending the witness is a bit
	// (lying about x). Since the real randomness doesn't satisfy either
	// branch relation, verification must fail. We force this by calling the
	// simulator for branch structure but with the real FS challenge rules.
	forged, err := ProveBit(pp, cBad, f.One(), r, ctxTx, nil)
	if err != nil {
		t.Fatalf("prover refused (fine in principle, but we want the proof attempt): %v", err)
	}
	if VerifyBit(pp, cBad, forged, ctxTx) == nil {
		t.Error("forged proof for commitment to 2 accepted — soundness broken")
	}
}

func TestBitProofTamperingMatrix(t *testing.T) {
	pp := ppFF
	f := pp.ScalarField()
	x := f.One()
	r := f.MustRand(nil)
	c := pp.CommitWith(x, r)
	p, _ := ProveBit(pp, c, x, r, ctxTx, nil)
	mutations := map[string]func(q BitProof) BitProof{
		"E0": func(q BitProof) BitProof { q.E0 = q.E0.Add(f.One()); return q },
		"E1": func(q BitProof) BitProof { q.E1 = q.E1.Add(f.One()); return q },
		"Z0": func(q BitProof) BitProof { q.Z0 = q.Z0.Add(f.One()); return q },
		"Z1": func(q BitProof) BitProof { q.Z1 = q.Z1.Add(f.One()); return q },
		"A0": func(q BitProof) BitProof { q.A0 = pp.Group().Generator(); return q },
		"A1": func(q BitProof) BitProof { q.A1 = pp.Group().Generator(); return q },
		"swap-branches": func(q BitProof) BitProof {
			q.A0, q.A1 = q.A1, q.A0
			q.E0, q.E1 = q.E1, q.E0
			q.Z0, q.Z1 = q.Z1, q.Z0
			return q
		},
	}
	for name, mut := range mutations {
		bad := mut(*p)
		if VerifyBit(pp, c, &bad, ctxTx) == nil {
			t.Errorf("mutation %q accepted", name)
		}
	}
}

// TestBitZeroKnowledgeSimulation: the simulator produces transcripts that
// satisfy the same verification algebra as real ones, for arbitrary
// commitments, demonstrating that accepting transcripts carry no witness
// information. We further check that the marginal distribution of the
// challenge shares from real proofs does not reveal the bit: E0 from a
// proof of 0 and E0 from a proof of 1 are both uniform (here: vary across
// runs and don't correlate with the bit in an obvious way — a smoke test,
// the real argument is the perfect simulation).
func TestBitZeroKnowledgeSimulation(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	e := f.MustRand(nil)
	// Simulate for a commitment to 5 — not even in the language.
	c := pp.CommitWith(f.FromInt64(5), f.MustRand(nil))
	sim, err := SimulateBitWithChallenge(pp, c, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBitTranscript(pp, c, sim, e); err != nil {
		t.Errorf("simulated transcript fails algebra: %v", err)
	}
	// Real transcript also satisfies CheckBitTranscript with its own e.
	x, r := f.One(), f.MustRand(nil)
	cReal := pp.CommitWith(x, r)
	p, _ := ProveBit(pp, cReal, x, r, ctxTx, nil)
	eReal := p.E0.Add(p.E1)
	if err := CheckBitTranscript(pp, cReal, p, eReal); err != nil {
		t.Errorf("real transcript fails algebra: %v", err)
	}
}

func TestVerifyBitsBatch(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	rng := rand.New(rand.NewSource(9))
	var cs []*pedersen.Commitment
	var ps []*BitProof
	for i := 0; i < 8; i++ {
		x := f.FromInt64(int64(rng.Intn(2)))
		r := f.MustRand(nil)
		c := pp.CommitWith(x, r)
		p, err := ProveBit(pp, c, x, r, ctxTx, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
		ps = append(ps, p)
	}
	if err := VerifyBits(pp, cs, ps, ctxTx); err != nil {
		t.Fatalf("honest batch rejected: %v", err)
	}
	// Corrupt one entry; the error must name its index.
	ps[5], ps[6] = ps[6], ps[5]
	err := VerifyBits(pp, cs, ps, ctxTx)
	if err == nil {
		t.Fatal("corrupted batch accepted")
	}
	if !strings.Contains(err.Error(), "index 5") {
		t.Errorf("error does not identify first bad index: %v", err)
	}
	if VerifyBits(pp, cs, ps[:3], ctxTx) == nil {
		t.Error("length mismatch accepted")
	}
}

// --- One-hot proofs ---

func TestOneHotCompleteness(t *testing.T) {
	for _, pp := range both {
		f := pp.ScalarField()
		for m := 1; m <= 5; m++ {
			for hot := 0; hot < m; hot++ {
				xs := make([]*field.Element, m)
				for j := range xs {
					if j == hot {
						xs[j] = f.One()
					} else {
						xs[j] = f.Zero()
					}
				}
				cs, os, err := pp.VectorCommit(xs, nil)
				if err != nil {
					t.Fatal(err)
				}
				p, err := ProveOneHot(pp, cs, os, ctxTx, nil)
				if err != nil {
					t.Fatalf("M=%d hot=%d: %v", m, hot, err)
				}
				if err := VerifyOneHot(pp, cs, p, ctxTx); err != nil {
					t.Errorf("%s M=%d hot=%d: honest proof rejected: %v", pp.Group().Name(), m, hot, err)
				}
			}
		}
	}
}

func TestOneHotRejectsIllegalInputs(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	cases := map[string][]*field.Element{
		"all-zero": {f.Zero(), f.Zero(), f.Zero()},
		"two-hot":  {f.One(), f.One(), f.Zero()},
		"non-bit":  {f.FromInt64(2), f.Zero(), f.Zero()},
		"negative": {f.MinusOne(), f.One(), f.One()},
	}
	for name, xs := range cases {
		cs, os, err := pp.VectorCommit(xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ProveOneHot(pp, cs, os, ctxTx, nil); err == nil {
			t.Errorf("%s: prover accepted illegal input", name)
		}
		_ = cs
	}
}

// TestOneHotSoundnessAgainstForgery: a malicious client cannot take proofs
// for a legal vector and re-bind them to a different (illegal) commitment
// vector, nor shuffle coordinate proofs across positions (the per-coordinate
// context binding prevents it).
func TestOneHotSoundnessAgainstForgery(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	xs := []*field.Element{f.Zero(), f.One(), f.Zero()}
	cs, os, _ := pp.VectorCommit(xs, nil)
	p, err := ProveOneHot(pp, cs, os, ctxTx, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Swap two commitments but keep the proof: coordinate proofs no longer
	// match their commitments.
	swapped := []*pedersen.Commitment{cs[1], cs[0], cs[2]}
	if VerifyOneHot(pp, swapped, p, ctxTx) == nil {
		t.Error("proof accepted for permuted commitments")
	}
	// Swap the corresponding bit proofs too: now each (c, proof) pair is
	// individually consistent, but the per-coordinate context binding must
	// still reject the permutation.
	pSwapped := &OneHotProof{Bits: []*BitProof{p.Bits[1], p.Bits[0], p.Bits[2]}, R: p.R}
	if VerifyOneHot(pp, swapped, pSwapped, ctxTx) == nil {
		t.Error("coordinate-permuted proof accepted: context binding broken")
	}
	// Replace a zero-coordinate commitment with another commitment to 1
	// (forging a two-hot vector) while keeping the old proof.
	c2 := pp.CommitWith(f.One(), f.MustRand(nil))
	forged := []*pedersen.Commitment{cs[0], cs[1], c2}
	if VerifyOneHot(pp, forged, p, ctxTx) == nil {
		t.Error("two-hot forgery accepted")
	}
	// Wrong length.
	if VerifyOneHot(pp, cs[:2], p, ctxTx) == nil {
		t.Error("length mismatch accepted")
	}
	if VerifyOneHot(pp, cs, nil, ctxTx) == nil {
		t.Error("nil proof accepted")
	}
}

// --- Wire encodings ---

func TestBitProofEncodeDecode(t *testing.T) {
	for _, pp := range both {
		f := pp.ScalarField()
		x, r := f.One(), f.MustRand(nil)
		c := pp.CommitWith(x, r)
		p, _ := ProveBit(pp, c, x, r, ctxTx, nil)
		enc := p.Encode(pp)
		if len(enc) != BitProofLen(pp) {
			t.Errorf("%s: encoded length %d != BitProofLen %d", pp.Group().Name(), len(enc), BitProofLen(pp))
		}
		back, err := DecodeBitProof(pp, enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyBit(pp, c, back, ctxTx); err != nil {
			t.Errorf("%s: decoded proof does not verify: %v", pp.Group().Name(), err)
		}
		if _, err := DecodeBitProof(pp, enc[:len(enc)-1]); err == nil {
			t.Error("truncated encoding accepted")
		}
		if _, err := DecodeBitProof(pp, append(enc, 0)); err == nil {
			t.Error("padded encoding accepted")
		}
	}
}

func TestOneHotProofEncodeDecode(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	xs := []*field.Element{f.Zero(), f.Zero(), f.One(), f.Zero()}
	cs, os, _ := pp.VectorCommit(xs, nil)
	p, err := ProveOneHot(pp, cs, os, ctxTx, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := p.Encode(pp)
	back, err := DecodeOneHotProof(pp, enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOneHot(pp, cs, back, ctxTx); err != nil {
		t.Errorf("decoded one-hot proof does not verify: %v", err)
	}
	if _, err := DecodeOneHotProof(pp, enc[:10]); err == nil {
		t.Error("truncated one-hot encoding accepted")
	}
	if _, err := DecodeOneHotProof(pp, []byte{0, 0, 0, 0}); err == nil {
		t.Error("zero-coordinate encoding accepted")
	}

	// A coordinate count the input cannot carry is refused before it sizes
	// anything: four bytes claiming 2²⁰ coordinates once cost 8 MiB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeOneHotProof(pp, []byte{0, 0x10, 0, 0})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a 2²⁰-coordinate claim in four bytes accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("a hostile coordinate count allocated %d bytes", n)
	}
}

// Property: ProveBit/VerifyBit round-trips for random bits and randomness.
func TestBitPropertyRoundTrip(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	fn := func(seed int64, bit bool) bool {
		rng := rand.New(rand.NewSource(seed))
		x := f.Zero()
		if bit {
			x = f.One()
		}
		r := randElem(f, rng)
		c := pp.CommitWith(x, r)
		p, err := ProveBit(pp, c, x, r, ctxTx, nil)
		if err != nil {
			return false
		}
		return VerifyBit(pp, c, p, ctxTx) == nil
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// BenchmarkProveBit / BenchmarkVerifyBit are the atoms of Table 1's
// "Σ-proof" and "Σ-verification" columns.
func BenchmarkProveBit(b *testing.B) {
	for _, pp := range both {
		pp := pp
		b.Run(pp.Group().Name(), func(b *testing.B) {
			f := pp.ScalarField()
			x, r := f.One(), f.MustRand(nil)
			c := pp.CommitWith(x, r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ProveBit(pp, c, x, r, ctxTx, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerifyBit(b *testing.B) {
	for _, pp := range both {
		pp := pp
		b.Run(pp.Group().Name(), func(b *testing.B) {
			f := pp.ScalarField()
			x, r := f.One(), f.MustRand(nil)
			c := pp.CommitWith(x, r)
			p, _ := ProveBit(pp, c, x, r, ctxTx, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := VerifyBit(pp, c, p, ctxTx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
