package vdp

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func TestBudgetConfigValidate(t *testing.T) {
	pub := testPublic(t, 1, 2, 4)
	if _, err := NewSession(pub, SessionOptions{Budget: &BudgetConfig{EpochCost: 0, Total: 5}}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted a zero epoch cost")
	}
	if _, err := NewSession(pub, SessionOptions{Budget: &BudgetConfig{EpochCost: 6, Total: 5}}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted a total below the epoch cost")
	}
	if _, err := NewShardedSession(pub, SessionOptions{Budget: &BudgetConfig{EpochCost: 0, Total: 5}}); !errors.Is(err, ErrBadConfig) {
		t.Error("sharded session accepted a zero epoch cost")
	}
}

func TestBudgetChargeWireRoundTrip(t *testing.T) {
	prev := ledgerGenesis()
	payload := encodeBudgetCharge(7, 3, 1_500_000, 4_500_000, prev)
	id, epoch, amount, cum, gotPrev, err := decodeBudgetCharge(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || epoch != 3 || amount != 1_500_000 || cum != 4_500_000 || !bytes.Equal(gotPrev, prev) {
		t.Errorf("round trip lost fields: id=%d epoch=%d amount=%d cum=%d", id, epoch, amount, cum)
	}
	if _, _, _, _, _, err := decodeBudgetCharge(payload[:len(payload)-1]); err == nil {
		t.Error("accepted a truncated charge")
	}
	if _, _, _, _, _, err := decodeBudgetCharge(encodeBudgetCharge(1, 0, 1, 1, []byte("short"))); err == nil {
		t.Error("accepted a malformed chain digest")
	}
}

func TestBudgetLedgerChain(t *testing.T) {
	cfg := &BudgetConfig{EpochCost: 2, Total: 4}
	l := newBudgetLedger(cfg)
	payload, commit := l.prepareCharge(0, 1)
	if payload == nil {
		t.Fatal("no charge prepared")
	}
	commit()
	if l.spent[1] != 2 || !l.chargedInEpoch(0, 1) {
		t.Fatalf("commit did not apply: spent=%d", l.spent[1])
	}
	// Same epoch: nothing further to charge.
	if p, _ := l.prepareCharge(0, 1); p != nil {
		t.Error("double charge prepared in one epoch")
	}
	// A replaying ledger converges to the same head.
	replay := newBudgetLedger(cfg)
	if err := replay.apply(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.digest(), l.digest()) {
		t.Error("replay head differs from live head")
	}
	// Tampered amount, stale prev, and double application all break.
	if err := replay.apply(payload); err == nil {
		t.Error("applied the same charge twice")
	}
	bad := encodeBudgetCharge(1, 1, 3, 5, replay.digest())
	if err := replay.apply(bad); err == nil {
		t.Error("accepted an off-policy amount")
	}
	if err := newBudgetLedger(cfg).apply(encodeBudgetCharge(2, 0, 2, 2, bytes.Repeat([]byte{1}, 32))); err == nil {
		t.Error("accepted a charge that does not extend the chain")
	}
	// Over-cap cumulative refused even when the chain links.
	p2, c2 := l.prepareCharge(1, 1)
	c2()
	if err := replay.apply(p2); err != nil {
		t.Fatal(err)
	}
	if l.canCharge(2, 1) {
		t.Error("client at its cap can still be charged")
	}
}

// TestBudgetRefusalEndToEnd is the ledger acceptance flow on one durable
// session: a client spends its whole budget across epochs, its next
// submission is refused with a board-recorded attributable verdict, other
// clients are unaffected, and the log still audits.
func TestBudgetRefusalEndToEnd(t *testing.T) {
	pub := testPublic(t, 1, 2, 4)
	cfg := &BudgetConfig{EpochCost: 5, Total: 10}
	path := filepath.Join(t.TempDir(), "board.log")
	log, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(pub, SessionOptions{Rand: testSeed(11), Store: log, Budget: cfg, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for epoch := 0; epoch < 2; epoch++ {
		sub, err := s.NewClientSubmission(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(ctx, sub); err != nil {
			t.Fatalf("epoch %d submit: %v", epoch, err)
		}
		if got := s.BudgetSpent(1); got != uint64(5*(epoch+1)) {
			t.Fatalf("epoch %d spend = %d", epoch, got)
		}
		if _, err := s.Finalize(ctx); err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 2: client 1 is out of budget, client 2 is fresh.
	sub, err := s.NewClientSubmission(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rerr := s.Submit(ctx, sub)
	if !errors.Is(rerr, ErrClientReject) || !isBudgetRefusalReason(rerr.Error()) {
		t.Fatalf("over-budget submission returned %v", rerr)
	}
	if s.BudgetSpent(1) != 10 {
		t.Error("refusal changed the client's spend")
	}
	sub2, err := s.NewClientSubmission(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(ctx, sub2); err != nil {
		t.Fatalf("fresh client refused: %v", err)
	}
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	liveDigest := s.LedgerDigest()

	// Every epoch of the log — including the refusal epoch — audits.
	for epoch := 0; epoch <= 2; epoch++ {
		if err := AuditLog(ctx, pub, log, epoch, 0); err != nil {
			t.Errorf("epoch %d audit: %v", epoch, err)
		}
	}

	// A resumed session replays the ledger to a byte-identical head and
	// still refuses the exhausted client.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	rs, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(11), Store: log2, Budget: cfg, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rs.LedgerDigest(), liveDigest) {
		t.Error("resumed ledger digest differs from the live session's")
	}
	if rs.BudgetSpent(1) != 10 || rs.BudgetSpent(2) != 5 {
		t.Errorf("resumed spends = %d, %d", rs.BudgetSpent(1), rs.BudgetSpent(2))
	}
	if err := rs.Reset(); err != nil {
		t.Fatal(err)
	}
	sub3, err := rs.NewClientSubmission(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Submit(ctx, sub3); !errors.Is(err, ErrClientReject) || !isBudgetRefusalReason(err.Error()) {
		t.Errorf("resumed session admitted an exhausted client: %v", err)
	}
}

// TestBudgetTailParity: a live tail with the budget policy replays the
// charge chain to the session's exact head and accepts genuine refusals; a
// tampered charge stream is a sticky audit failure.
func TestBudgetTailParity(t *testing.T) {
	pub := testPublic(t, 1, 2, 4)
	cfg := &BudgetConfig{EpochCost: 1, Total: 1}
	path := filepath.Join(t.TempDir(), "board.log")
	log, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s, err := NewSession(pub, SessionOptions{Rand: testSeed(13), Store: log, Budget: cfg, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for id := 0; id < 3; id++ {
		sub, err := s.NewClientSubmission(id, id%2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	// Epoch 1: client 0 is refused (budget spent), client 9 admitted.
	sub, err := s.NewClientSubmission(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(ctx, sub); !errors.Is(err, ErrClientReject) {
		t.Fatalf("expected refusal, got %v", err)
	}
	sub9, err := s.NewClientSubmission(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(ctx, sub9); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}

	for name, opts := range map[string]TailOptions{
		"policy":     {Budget: cfg},
		"chain-only": {},
	} {
		a, err := TailAuditLog(pub, log, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Poll(); err != nil {
			t.Fatalf("%s tail: %v", name, err)
		}
		if !bytes.Equal(a.LedgerDigest(), s.LedgerDigest()) {
			t.Errorf("%s tail ledger head differs from the session's", name)
		}
		if _, ok := a.VerifiedDigest(1); !ok {
			t.Errorf("%s tail did not seal epoch 1", name)
		}
		a.Close()
	}

	// An injected charge that extends nothing breaks the tail at that
	// record.
	bad, err := TailAuditLog(pub, log, TailOptions{Budget: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Poll(); err != nil {
		t.Fatal(err)
	}
	rec := &store.Record{Kind: RecordBudgetCharge, Epoch: 1, Payload: encodeBudgetCharge(9, 1, 1, 2, ledgerGenesis())}
	if err := bad.Feed(rec, -1); err == nil || !errors.Is(bad.Err(), ErrAuditFail) {
		t.Error("tail accepted a charge that does not extend its chain")
	}
	bad.Close()
}

func TestParseBudget(t *testing.T) {
	cfg, err := ParseBudget("0.5,2")
	if err != nil {
		t.Fatalf("ParseBudget: %v", err)
	}
	if cfg.EpochCost != 500_000 || cfg.Total != 2_000_000 {
		t.Fatalf("ParseBudget = %+v, want {500000 2000000}", cfg)
	}
	if cfg, err = ParseBudget(" 1 , 1 "); err != nil || cfg.EpochCost != cfg.Total {
		t.Fatalf("ParseBudget with spaces = %+v, %v", cfg, err)
	}
	for _, bad := range []string{"", "1", "1,2,3", "x,2", "1,y", "0,2", "-1,2", "2,1", "1e10,1e10", "NaN,2"} {
		if _, err := ParseBudget(bad); !errors.Is(err, ErrBadConfig) {
			t.Errorf("ParseBudget(%q) = %v, want ErrBadConfig", bad, err)
		}
	}
}
