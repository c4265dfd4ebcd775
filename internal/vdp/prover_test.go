package vdp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/morra"
	"repro/internal/pedersen"
	"repro/internal/store"
)

// TestProverStateMachineDiscipline: the Prover enforces its call order and
// rejects double moves, so an orchestration bug cannot silently produce an
// inconsistent protocol run.
func TestProverStateMachineDiscipline(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	pr, err := NewProver(pub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.SetPublicCoins(nil); !errors.Is(err, ErrBadConfig) {
		t.Error("SetPublicCoins before CommitCoins accepted")
	}
	if _, err := pr.Finalize(); !errors.Is(err, ErrBadConfig) {
		t.Error("Finalize before SetPublicCoins accepted")
	}
	if _, err := pr.CommitCoins(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.CommitCoins(nil); !errors.Is(err, ErrBadConfig) {
		t.Error("double CommitCoins accepted")
	}
	// Public coin validation.
	if err := pr.SetPublicCoins([][]byte{{0, 1}}); !errors.Is(err, ErrBadConfig) {
		t.Error("wrong coin count accepted")
	}
	if err := pr.SetPublicCoins([][]byte{{0, 1, 2, 0}}); !errors.Is(err, ErrBadConfig) {
		t.Error("non-bit public coin accepted")
	}
	if err := pr.SetPublicCoins([][]byte{{0, 1, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := pr.SetPublicCoins([][]byte{{0, 1, 1, 0}}); !errors.Is(err, ErrBadConfig) {
		t.Error("double SetPublicCoins accepted")
	}
	if _, err := pr.Finalize(); err != nil {
		t.Errorf("honest Finalize failed: %v", err)
	}
}

func TestNewProverIndexValidation(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	if _, err := NewProver(pub, 2); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted out-of-range prover index")
	}
	if _, err := NewProver(pub, -1); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted negative prover index")
	}
	if pr, err := NewProver(pub, 1); err != nil || pr.index != 1 {
		t.Errorf("NewProver(1): %v, index %d", err, pr.index)
	}
}

func TestAcceptClientRejections(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	sub, err := pub.NewClientSubmission(3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProver(pub, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Payload meant for the other prover.
	if err := pr.AcceptClient(sub.Public, sub.Payloads[1]); !errors.Is(err, ErrClientReject) {
		t.Error("accepted payload addressed to prover 1")
	}
	// Nil payload.
	if err := pr.AcceptClient(sub.Public, nil); !errors.Is(err, ErrClientReject) {
		t.Error("accepted nil payload")
	}
	// Mismatched client ID.
	other, err := pub.NewClientSubmission(4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.AcceptClient(sub.Public, other.Payloads[0]); !errors.Is(err, ErrClientReject) {
		t.Error("accepted payload with mismatched client ID")
	}
	// Honest accept, then duplicate.
	if err := pr.AcceptClient(sub.Public, sub.Payloads[0]); err != nil {
		t.Fatal(err)
	}
	if err := pr.AcceptClient(sub.Public, sub.Payloads[0]); !errors.Is(err, ErrClientReject) {
		t.Error("accepted duplicate submission")
	}
}

func TestNewClientSubmissionValidation(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	for _, bad := range []int{-1, 2, 7} {
		if _, err := pub.NewClientSubmission(0, bad, nil); !errors.Is(err, ErrClientReject) {
			t.Errorf("counting query accepted input %d", bad)
		}
	}
	pubHist := testPublic(t, 1, 3, 4)
	for _, bad := range []int{-1, 3, 100} {
		if _, err := pubHist.NewClientSubmission(0, bad, nil); !errors.Is(err, ErrClientReject) {
			t.Errorf("histogram accepted choice %d", bad)
		}
	}
}

func TestVerifyClientStructuralRejections(t *testing.T) {
	pub := testPublic(t, 2, 2, 4)
	sub, err := pub.NewClientSubmission(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Missing proof.
	noProof := *sub.Public
	noProof.OneHotProof = nil
	if err := pub.VerifyClient(&noProof); !errors.Is(err, ErrClientReject) {
		t.Error("accepted submission without proof")
	}
	// Wrong bin count.
	shortBins := *sub.Public
	shortBins.ShareCommitments = shortBins.ShareCommitments[:1]
	if err := pub.VerifyClient(&shortBins); !errors.Is(err, ErrClientReject) {
		t.Error("accepted submission with missing bins")
	}
	// Wrong prover count in a row.
	shortRow := *sub.Public
	shortRow.ShareCommitments = [][]*pedersen.Commitment{
		sub.Public.ShareCommitments[0][:1],
		sub.Public.ShareCommitments[1],
	}
	if err := pub.VerifyClient(&shortRow); !errors.Is(err, ErrClientReject) {
		t.Error("accepted submission with missing share commitments")
	}
}

// TestAggregateValidation exercises the Aggregate error paths.
func TestAggregateValidation(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	v := NewVerifierParallel(pub, 1)
	f := pub.Field()
	mk := func(idx int) *ProverOutput {
		return &ProverOutput{Prover: idx, Y: []*field.Element{f.FromInt64(1)}, Z: []*field.Element{f.Zero()}}
	}
	if _, err := v.Aggregate([]*ProverOutput{mk(0)}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted missing prover output")
	}
	if _, err := v.Aggregate([]*ProverOutput{mk(0), mk(0)}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted duplicate prover outputs")
	}
	if _, err := v.Aggregate([]*ProverOutput{mk(0), mk(5)}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted out-of-range prover index")
	}
	rel, err := v.Aggregate([]*ProverOutput{mk(0), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Raw[0] != 2 {
		t.Errorf("aggregate raw %d, want 2", rel.Raw[0])
	}
}

// TestAuditRejectsMorraEquivocation: a transcript whose recorded Morra
// reveal does not match its commitment must fail the audit — the auditor
// replays the coin-flipping verification too.
func TestAuditRejectsMorraEquivocation(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	res, err := Run(pub, []int{1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := *res.Transcript
	rec := *cp.Morra[0]
	reveals := append([]*morra.RevealMsg{}, rec.Reveals...)
	tampered := *reveals[0]
	openings := append([]*pedersen.Opening{}, tampered.Openings...)
	openings[0] = &pedersen.Opening{X: pub.Field().FromInt64(12345), R: openings[0].R}
	tampered.Openings = openings
	reveals[0] = &tampered
	rec.Reveals = reveals
	cp.Morra = []*MorraRecord{&rec}
	if err := Audit(pub, &cp); !errors.Is(err, ErrAuditFail) {
		t.Errorf("morra equivocation passed audit: %v", err)
	}
}

// TestMorraBlameAmongBatchedOpenings: one bad opening among the 2¹⁰ of a
// Morra record fails the batched opening check, and the audit at widths 1
// and 2, the offline log audit and the live tail all refuse the seal with
// ErrAuditFail naming prover 0's Morra record, the party and the coin.
func TestMorraBlameAmongBatchedOpenings(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 1, 1, 512) // 2 parties × 512 coins = 2¹⁰ openings
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(95), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range buildSubs(t, pub, []int{1, 0, 1}) {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if recs[len(recs)-1].Kind != RecordSeal {
		t.Fatal("the epoch's seal is not one record")
	}
	const party, coin = 1, 377
	cp := *res.Transcript
	rec := *cp.Morra[0]
	rec.Reveals = append([]*morra.RevealMsg{}, rec.Reveals...)
	tampered := *rec.Reveals[party]
	tampered.Openings = append([]*pedersen.Opening{}, tampered.Openings...)
	o := tampered.Openings[coin]
	tampered.Openings[coin] = &pedersen.Opening{X: o.X, R: o.R.Add(pub.Field().One())}
	rec.Reveals[party] = &tampered
	cp.Morra = []*MorraRecord{&rec}
	recs = copyRecords(recs)
	recs[len(recs)-1].Payload = pub.EncodeTranscript(&cp)

	want := fmt.Sprintf("morra record for prover 0: morra: party misbehaved: party %d opening %d does not match its commitment", party, coin)
	blamed := func(who string, err error) {
		t.Helper()
		if !errors.Is(err, ErrAuditFail) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want ErrAuditFail naming %q", who, err, want)
		}
	}
	for _, w := range []int{1, 2} {
		blamed(fmt.Sprintf("AuditParallel width %d", w), AuditParallel(pub, &cp, w))
	}
	blamed("AuditLog", AuditLog(ctx, pub, memLogOf(t, recs), 0, 2))
	blamed("tail", feedAll(NewTailAuditor(pub, TailOptions{Workers: 2}), recs))
}

// TestSessionContextSeparation: a client submission built for one
// deployment must not verify under a different one (different nb), because
// the Σ-proof session context differs.
func TestSessionContextSeparation(t *testing.T) {
	pubA := testPublic(t, 1, 1, 4)
	pubB := testPublic(t, 1, 1, 8) // different nb → different context
	sub, err := pubA.NewClientSubmission(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pubA.VerifyClient(sub.Public); err != nil {
		t.Fatalf("home deployment rejected its own client: %v", err)
	}
	if err := pubB.VerifyClient(sub.Public); !errors.Is(err, ErrClientReject) {
		t.Error("submission replayed across deployments")
	}
}
