package sigma

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/pedersen"
)

// buildBitBatch creates n honest (commitment, proof) pairs.
func buildBitBatch(t testing.TB, pp *pedersen.Params, n int) ([]*pedersen.Commitment, []*BitProof) {
	t.Helper()
	f := pp.ScalarField()
	rng := rand.New(rand.NewSource(41))
	cs := make([]*pedersen.Commitment, n)
	ps := make([]*BitProof, n)
	for i := 0; i < n; i++ {
		x := f.FromInt64(int64(rng.Intn(2)))
		r := f.MustRand(nil)
		cs[i] = pp.CommitWith(x, r)
		p, err := ProveBit(pp, cs[i], x, r, ctxTx, nil)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	return cs, ps
}

func TestVerifyBitsBatchHonest(t *testing.T) {
	for _, pp := range both {
		for _, n := range []int{0, 1, 2, 17} {
			cs, ps := buildBitBatch(t, pp, n)
			if err := verifyBitsBatch(pp, cs, ps, ctxTx, nil); err != nil {
				t.Errorf("%s n=%d: honest batch rejected: %v", pp.Group().Name(), n, err)
			}
		}
	}
}

func TestVerifyBitsBatchDetectsAndNamesCulprit(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	cs, ps := buildBitBatch(t, pp, 9)

	// Tamper response of proof 4.
	bad := *ps[4]
	bad.Z0 = bad.Z0.Add(f.One())
	ps[4] = &bad
	err := verifyBitsBatch(pp, cs, ps, ctxTx, nil)
	if err == nil {
		t.Fatal("tampered batch accepted")
	}
	if !strings.Contains(err.Error(), "index 4") {
		t.Errorf("error does not name culprit: %v", err)
	}
}

func TestVerifyBitsBatchDetectsNonBitCommitment(t *testing.T) {
	pp := ppFF
	f := pp.ScalarField()
	cs, ps := buildBitBatch(t, pp, 5)
	// Replace commitment 2 with a commitment to 2 while keeping its proof:
	// the transplant must fail (challenge binding catches it before the
	// batch equation is even needed).
	cs[2] = pp.CommitWith(f.FromInt64(2), f.MustRand(nil))
	err := verifyBitsBatch(pp, cs, ps, ctxTx, nil)
	if err == nil {
		t.Fatal("non-bit commitment accepted")
	}
	if !strings.Contains(err.Error(), "index 2") {
		t.Errorf("error does not name culprit: %v", err)
	}
}

func TestVerifyBitsBatchWrongContext(t *testing.T) {
	pp := ppEC
	cs, ps := buildBitBatch(t, pp, 3)
	if err := verifyBitsBatch(pp, cs, ps, []byte("other-session"), nil); err == nil {
		t.Error("batch accepted under wrong context")
	}
}

func TestVerifyBitsBatchLengthMismatch(t *testing.T) {
	pp := ppEC
	cs, ps := buildBitBatch(t, pp, 3)
	if err := verifyBitsBatch(pp, cs, ps[:2], ctxTx, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := verifyBitsBatch(pp, cs, []*BitProof{ps[0], nil, ps[2]}, ctxTx, nil); err == nil {
		t.Error("nil proof accepted")
	}
}

// TestVerifyBitsBatchAgreesWithSequential: the two verifiers must agree on
// a mix of honest and tampered batches.
func TestVerifyBitsBatchAgreesWithSequential(t *testing.T) {
	pp := ppFF
	f := pp.ScalarField()
	for trial := 0; trial < 4; trial++ {
		cs, ps := buildBitBatch(t, pp, 6)
		if trial%2 == 1 {
			bad := *ps[trial]
			bad.E0 = bad.E0.Add(f.One())
			bad.E1 = bad.E1.Sub(f.One()) // keep split valid; equations break
			ps[trial] = &bad
		}
		seq := VerifyBits(pp, cs, ps, ctxTx)
		bat := verifyBitsBatch(pp, cs, ps, ctxTx, nil)
		if (seq == nil) != (bat == nil) {
			t.Errorf("trial %d: sequential=%v batch=%v", trial, seq, bat)
		}
	}
}

// TestBitBatchMixedStatements: the accumulator folds bit proofs under
// heterogeneous contexts plus plain opening claims, and the combined check
// agrees at several worker widths.
func TestBitBatchMixedStatements(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	b := NewBitBatch(pp, nil)
	for i := 0; i < 9; i++ {
		x := f.FromInt64(int64(i % 2))
		r := f.MustRand(nil)
		c := pp.CommitWith(x, r)
		ctx := []byte{byte(i), 0xAB}
		p, err := ProveBit(pp, c, x, r, ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Add(c, p, ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Two opening claims with non-bit messages.
	for i := 0; i < 2; i++ {
		x := f.FromInt64(int64(10 + i))
		r := f.MustRand(nil)
		if err := b.AddOpening(pp.CommitWith(x, r), x, r); err != nil {
			t.Fatal(err)
		}
	}
	if b.n != 11 {
		t.Fatalf("Len = %d, want 11", b.n)
	}
	for _, workers := range []int{1, 4} {
		if err := b.Check(workers); err != nil {
			t.Errorf("workers=%d: honest mixed batch rejected: %v", workers, err)
		}
	}
}

// TestBitBatchOpeningForgery: a false opening claim breaks the combined
// equation.
func TestBitBatchOpeningForgery(t *testing.T) {
	pp := ppFF
	f := pp.ScalarField()
	b := NewBitBatch(pp, nil)
	cs, ps := buildBitBatch(t, pp, 5)
	for i := range cs {
		if err := b.Add(cs[i], ps[i], ctxTx); err != nil {
			t.Fatal(err)
		}
	}
	x := f.FromInt64(3)
	r := f.MustRand(nil)
	if err := b.AddOpening(pp.CommitWith(x, r), x.Add(f.One()), r); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(1); err == nil {
		t.Error("batch with forged opening accepted")
	}
}

// buildOneHots creates n honest one-hot statements of dimension m.
func buildOneHots(t testing.TB, pp *pedersen.Params, n, m int) (css [][]*pedersen.Commitment, proofs []*OneHotProof, ctxs [][]byte) {
	t.Helper()
	f := pp.ScalarField()
	for i := 0; i < n; i++ {
		vec := make([]*field.Element, m)
		for j := range vec {
			vec[j] = f.Zero()
		}
		vec[i%m] = f.One()
		cs, os, err := pp.VectorCommit(vec, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := []byte{0x51, byte(i)}
		p, err := ProveOneHot(pp, cs, os, ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		css = append(css, cs)
		proofs = append(proofs, p)
		ctxs = append(ctxs, ctx)
	}
	return css, proofs, ctxs
}

// TestBitBatchOneHot: honest multi-client one-hot proofs batch-verify; a
// single forged proof among them breaks the combined check while AddOneHot
// still accepts it (the forgery is only detectable in the group equations).
func TestBitBatchOneHot(t *testing.T) {
	pp := ppEC
	f := pp.ScalarField()
	css, proofs, ctxs := buildOneHots(t, pp, 6, 3)
	honest := NewBitBatch(pp, nil)
	for i := range css {
		if err := honest.AddOneHot(css[i], proofs[i], ctxs[i]); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := honest.Check(2); err != nil {
		t.Errorf("honest one-hot batch rejected: %v", err)
	}

	// Forge client 4: tamper one coordinate response.
	forged := NewBitBatch(pp, nil)
	bad := *proofs[4]
	badBits := append([]*BitProof{}, bad.Bits...)
	bb := *badBits[1]
	bb.Z0 = bb.Z0.Add(f.One())
	badBits[1] = &bb
	bad.Bits = badBits
	proofs[4] = &bad
	for i := range css {
		if err := forged.AddOneHot(css[i], proofs[i], ctxs[i]); err != nil {
			t.Fatalf("scalar phase rejected client %d: %v", i, err)
		}
	}
	for _, workers := range []int{1, 4} { // 60 terms: past the multi-exponentiation's hand-off threshold
		if err := forged.Check(workers); err == nil {
			t.Errorf("workers=%d: batch containing a forged one-hot proof accepted", workers)
		}
	}
}

// TestBitBatchOneHotRollback: a one-hot proof that fails a scalar check
// part-way leaves the batch unchanged, so earlier and later honest folds
// still verify. By the time AddOneHot gives up, the coordinates before the
// bad one have been folded — bases, the h-side aggregate and their e1σ on
// the g-side aggregate — and all of it must come back out.
func TestBitBatchOneHotRollback(t *testing.T) {
	poisons := []struct {
		name   string
		pp     *pedersen.Params
		poison func(f *field.Field, bits []*BitProof)
	}{
		{"incomplete-coordinate", ppFF, func(_ *field.Field, bits []*BitProof) {
			bits[2] = &BitProof{}
		}},
		{"broken-challenge-split", ppEC, func(f *field.Field, bits []*BitProof) {
			last := *bits[2]
			last.E1 = last.E1.Add(f.One())
			bits[2] = &last
		}},
	}
	for _, tc := range poisons {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pp := tc.pp
			css, proofs, ctxs := buildOneHots(t, pp, 3, 3)
			b := NewBitBatch(pp, nil)
			if err := b.AddOneHot(css[0], proofs[0], ctxs[0]); err != nil {
				t.Fatal(err)
			}
			before := batchState(b)
			// Client 1's last coordinate is bad: coordinates 0-1 are folded,
			// then rolled back.
			mangled := *proofs[1]
			mangled.Bits = append([]*BitProof{}, mangled.Bits...)
			tc.poison(pp.ScalarField(), mangled.Bits)
			if err := b.AddOneHot(css[1], &mangled, ctxs[1]); err == nil {
				t.Fatal("poisoned one-hot proof accepted")
			}
			if after := batchState(b); after != before {
				t.Fatalf("failed AddOneHot left the batch at %s, want %s (rollback)", after, before)
			}
			if err := b.AddOneHot(css[2], proofs[2], ctxs[2]); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				if err := b.Check(workers); err != nil {
					t.Errorf("workers=%d: batch after rollback rejected honest members: %v", workers, err)
				}
			}
		})
	}
}

// batchState renders everything a fold may change: the equation count,
// the held commitments, every variable base with its exponent and the two
// fixed-base sums.
func batchState(b *BitBatch) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d held=%v g=%s h=%s", b.n, b.held, b.gSum.String(), b.hSum.String())
	for i := range b.bases {
		fmt.Fprintf(&sb, " %x^%s", b.pp.Group().Encode(b.bases[i]), b.exps[i])
	}
	return sb.String()
}

// TestBitBatchHeldOpening: openings folded onto the commitments the bit
// proofs already hold (AddOpeningAt) pass Check when every opening is
// true and fail it when any one is false — a wrong x or r, two members'
// openings swapped, an opening folded onto another member's base — even
// though every proof in the batch is valid. A held opening adds no base,
// on either group.
func TestBitBatchHeldOpening(t *testing.T) {
	for _, pp := range both {
		pp := pp
		t.Run(pp.Group().Name(), func(t *testing.T) {
			f := pp.ScalarField()
			one := f.One()
			const n = 4
			xs, rs := make([]*field.Element, n), make([]*field.Element, n)
			cs, ps := make([]*pedersen.Commitment, n), make([]*BitProof, n)
			for i := range cs {
				xs[i], rs[i] = f.FromInt64(int64(i%2)), f.MustRand(nil)
				cs[i] = pp.CommitWith(xs[i], rs[i])
				p, err := ProveBit(pp, cs[i], xs[i], rs[i], ctxTx, nil)
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = p
			}
			type opening struct {
				at   int
				x, r *field.Element
			}
			honest := func() []opening {
				out := make([]opening, n)
				for i := range out {
					out[i] = opening{i, xs[i], rs[i]}
				}
				return out
			}
			fold := func(os []opening) *BitBatch {
				b := NewBitBatch(pp, nil)
				for i := range cs {
					if b.Held() != i {
						t.Fatalf("Held() = %d before proof %d", b.Held(), i)
					}
					if err := b.Add(cs[i], ps[i], ctxTx); err != nil {
						t.Fatal(err)
					}
				}
				bases := len(b.bases)
				for _, o := range os {
					if err := b.AddOpeningAt(o.at, o.x, o.r); err != nil {
						t.Fatal(err)
					}
				}
				if len(b.bases) != bases {
					t.Fatalf("held openings added %d bases", len(b.bases)-bases)
				}
				return b
			}
			if err := fold(honest()).Check(1); err != nil {
				t.Fatalf("honest held openings rejected: %v", err)
			}
			cases := map[string]func(os []opening){
				"wrong-x":          func(os []opening) { os[2].x = os[2].x.Add(one) },
				"wrong-r":          func(os []opening) { os[1].r = os[1].r.Add(one) },
				"swapped-openings": func(os []opening) { os[0].x, os[0].r, os[1].x, os[1].r = os[1].x, os[1].r, os[0].x, os[0].r },
				"wrong-base":       func(os []opening) { os[3].at = 2 },
			}
			for name, corrupt := range cases {
				os := honest()
				corrupt(os)
				for _, workers := range []int{1, 4} {
					if err := fold(os).Check(workers); err == nil {
						t.Errorf("%s: workers=%d: a false held opening passed Check", name, workers)
					}
				}
			}
			b := NewBitBatch(pp, nil)
			if err := b.AddOpeningAt(0, one, one); err == nil {
				t.Error("AddOpeningAt on an empty batch succeeded")
			}
		})
	}
}

// foldStatement is one entry of the adversarial tables below: something
// to fold into a BitBatch, and the verdict the unfolded verifier gives it.
type foldStatement struct {
	name  string
	fold  func(b *BitBatch) error
	valid bool
}

// adversarialStatements builds, on pp, honest bit proofs and openings and
// every single-field corruption of them the regrouped fold must still
// catch. Each entry's verdict comes from VerifyBit / Params.Verify — the
// per-proof check that forms X1 = c ⊘ g explicitly.
func adversarialStatements(t *testing.T, pp *pedersen.Params) []foldStatement {
	t.Helper()
	f := pp.ScalarField()
	one := f.One()
	var out []foldStatement
	bit := func(name string, c *pedersen.Commitment, p BitProof) {
		out = append(out, foldStatement{
			name:  name,
			fold:  func(b *BitBatch) error { return b.Add(c, &p, ctxTx) },
			valid: VerifyBit(pp, c, &p, ctxTx) == nil,
		})
	}
	for v := int64(0); v < 2; v++ {
		x, r := f.FromInt64(v), f.MustRand(nil)
		c := pp.CommitWith(x, r)
		p, err := ProveBit(pp, c, x, r, ctxTx, nil)
		if err != nil {
			t.Fatal(err)
		}
		tag := "bit" + itoaTest(int(v)) + "/"
		bit(tag+"honest", c, *p)
		q := *p
		q.Z0 = q.Z0.Add(one)
		bit(tag+"bad-z0", c, q)
		q = *p
		q.Z1 = q.Z1.Add(one)
		bit(tag+"bad-z1", c, q)
		q = *p
		q.E0 = q.E0.Add(one)
		bit(tag+"split-sum-off-by-one", c, q)
		q = *p
		q.E0, q.E1 = q.E0.Add(one), q.E1.Sub(one) // still sums to e: only the group equation sees it
		bit(tag+"split-shifted-by-one", c, q)
		q = *p
		q.A0, q.A1 = q.A1, q.A0
		bit(tag+"announcements-swapped", c, q)
		q = *p
		q.A0, q.A1, q.E0, q.E1, q.Z0, q.Z1 = q.A1, q.A0, q.E1, q.E0, q.Z1, q.Z0
		bit(tag+"branches-swapped", c, q)
	}
	// A commitment to 2 with the proof a prover lying about x produces: the
	// challenge split is right, neither branch equation is.
	x2, r2 := f.FromInt64(2), f.MustRand(nil)
	c2 := pp.CommitWith(x2, r2)
	lie, err := ProveBit(pp, c2, one, r2, ctxTx, nil)
	if err != nil {
		t.Fatal(err)
	}
	bit("commitment-to-2", c2, *lie)

	opening := func(name string, c *pedersen.Commitment, x, r *field.Element) {
		out = append(out, foldStatement{
			name:  name,
			fold:  func(b *BitBatch) error { return b.AddOpening(c, x, r) },
			valid: pp.Verify(c, x, r),
		})
	}
	x, r := f.MustRand(nil), f.MustRand(nil) // AddOpening takes any x, not only small ones
	c := pp.CommitWith(x, r)
	opening("opening/honest", c, x, r)
	opening("opening/honest-one", pp.CommitWith(one, r), one, r)
	opening("opening/wrong-x", c, x.Add(one), r)
	opening("opening/wrong-r", c, x, r.Add(one))
	return out
}

// foldVerdict folds the statements into a fresh batch and reports whether
// the folded verifier accepts all of them. The verdict is taken at one
// worker and at four; a batch they disagree on is a bug in Check itself,
// not a verdict, so it panics.
func foldVerdict(pp *pedersen.Params, stmts []foldStatement, rnd *rand.Rand) bool {
	b := NewBitBatch(pp, rnd)
	for _, s := range stmts {
		if s.fold(b) != nil {
			return false
		}
	}
	one, four := b.Check(1) == nil, b.Check(4) == nil
	if one != four {
		panic(fmt.Sprintf("sigma: Check(1) accepts = %v but Check(4) accepts = %v on the same batch", one, four))
	}
	return one
}

// TestBitBatchAdversarial: every corruption alone, and among honest
// neighbours, fails the folded check; every honest statement passes it; and
// over 1 000 seeded random mixes the folded verdict is exactly the
// conjunction of the per-proof verdicts.
func TestBitBatchAdversarial(t *testing.T) {
	for _, pp := range both {
		pp := pp
		t.Run(pp.Group().Name(), func(t *testing.T) {
			stmts := adversarialStatements(t, pp)
			rng := rand.New(rand.NewSource(77))
			var honest []foldStatement
			for _, s := range stmts {
				if s.valid {
					honest = append(honest, s)
				}
			}
			if len(honest) != 4 || len(stmts) != 19 {
				t.Fatalf("table has %d statements, %d of them valid; want 19 and 4", len(stmts), len(honest))
			}
			if !foldVerdict(pp, honest, rng) {
				t.Fatal("the honest statements together are rejected")
			}
			for _, s := range stmts {
				if got := foldVerdict(pp, []foldStatement{s}, rng); got != s.valid {
					t.Errorf("%s alone: folded verdict %v, per-proof verdict %v", s.name, got, s.valid)
				}
				if s.valid {
					continue
				}
				among := append(append([]foldStatement{}, honest[:2]...), s)
				among = append(among, honest[2:]...)
				if foldVerdict(pp, among, rng) {
					t.Errorf("%s among honest statements: accepted", s.name)
				}
			}

			mixes := 1000
			if pp != ppEC || testing.Short() {
				mixes = 50 // Schnorr2048 pays ~0.5 ms per exponentiation
			}
			for m := 0; m < mixes; m++ {
				// Mostly honest draws, so that accepting mixes are common.
				mix := make([]foldStatement, 1+rng.Intn(6))
				want := true
				for i := range mix {
					if rng.Intn(8) == 0 {
						mix[i] = stmts[rng.Intn(len(stmts))]
					} else {
						mix[i] = honest[rng.Intn(len(honest))]
					}
					want = want && mix[i].valid
				}
				if got := foldVerdict(pp, mix, rng); got != want {
					names := make([]string, len(mix))
					for i := range mix {
						names[i] = mix[i].name
					}
					t.Fatalf("mix %d %v: folded verdict %v, per-proof verdict %v", m, names, got, want)
				}
			}
		})
	}
}

// BenchmarkFoldedCheck times BitBatch.Check alone — the fixed-base
// commitment and the 3n-term multi-exponentiation — on the default group at
// the batch size of one 64-submission frame; ns/op ÷ 64 is the per-proof
// figure the benchmark reports as sigma.check_us_per_proof.
func BenchmarkFoldedCheck(b *testing.B) {
	pp := ppEC
	const n = 64
	cs, ps := buildBitBatch(b, pp, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := NewBitBatch(pp, nil)
		for j := range cs {
			if err := batch.Add(cs[j], ps[j], ctxTx); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := batch.Check(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyBitsAblation quantifies the batching win at protocol-
// realistic batch sizes (the Σ-verification column of Table 1).
func BenchmarkVerifyBitsAblation(b *testing.B) {
	pp := ppFF
	for _, n := range []int{16, 64} {
		cs, ps := buildBitBatch(b, pp, n)
		b.Run("sequential/n="+itoaTest(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := VerifyBits(pp, cs, ps, ctxTx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("batch/n="+itoaTest(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := verifyBitsBatch(pp, cs, ps, ctxTx, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoaTest(v int) string {
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

// verifyBitsBatch is VerifyBitsBatchCtx with one context for every proof.
func verifyBitsBatch(pp *pedersen.Params, cs []*pedersen.Commitment, ps []*BitProof, ctx []byte, rnd io.Reader) error {
	return VerifyBitsBatchCtx(pp, cs, ps, func(int) []byte { return ctx }, rnd)
}
