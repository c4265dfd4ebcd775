package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sketch"
	"repro/internal/store"
)

func testLayout() sketch.Layout { return sketch.Layout{Rows: 3, Width: 8, Domain: 24} }

// sketchItems is a deterministic workload with one unambiguous heavy
// hitter: hot clients all report hotItem, the rest spread across the
// domain one item each.
func sketchItems(clients, hotItem, hot int) []int {
	items := make([]int, clients)
	for i := range items {
		if i < hot {
			items[i] = hotItem
		} else {
			items[i] = (hotItem + 1 + i) % 24
		}
	}
	return items
}

func TestSketchSessionValidation(t *testing.T) {
	pub := testPublic(t, 1, 8, 4)
	if _, err := NewSketchSession(pub, sketch.Layout{Rows: 0, Width: 8, Domain: 4}, SessionOptions{}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted a zero-row layout")
	}
	if _, err := NewSketchSession(pub, sketch.Layout{Rows: 2, Width: 4, Domain: 4}, SessionOptions{}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted a layout width that disagrees with the protocol bins")
	}
	if _, err := NewSketchSession(pub, testLayout(), SessionOptions{Shards: 2}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted Shards on a sketch session")
	}
	if _, err := NewSketchSession(pub, testLayout(), SessionOptions{Budget: &BudgetConfig{}}); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted an invalid budget")
	}
	hs, err := NewSketchSession(pub, testLayout(), SessionOptions{Rand: testSeed(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.NewContribution(1, 24); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted an out-of-domain item")
	}
	c, err := hs.NewContribution(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Rows = c.Rows[:2]
	if err := hs.Submit(context.Background(), c); !errors.Is(err, ErrBadConfig) {
		t.Error("accepted a contribution missing a row")
	}
}

// TestSketchHeavyHittersEndToEnd is the tentpole acceptance flow: a flood
// of committed one-hot contributions over a Rows×Width sketch finalizes
// into a verifiable noisy sketch whose HeavyHitters ranking surfaces the
// true hitter, whose point estimates sit inside the count-min + noise
// bound, and whose every row transcript passes the full ΠBin audit.
func TestSketchHeavyHittersEndToEnd(t *testing.T) {
	pub := testPublic(t, 1, 8, 4)
	layout := testLayout()
	hs, err := NewSketchSession(pub, layout, SessionOptions{Rand: testSeed(21), Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const hotItem, hot, clients = 5, 12, 20
	items := sketchItems(clients, hotItem, hot)
	for id, item := range items {
		c, err := hs.NewContribution(id, item)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.Submit(ctx, c); err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	res, err := hs.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ns := res.Sketch
	if ns.Count != clients {
		t.Errorf("sketch counts %d contributions, want %d", ns.Count, clients)
	}
	est, bound, err := ns.PointQuery(hotItem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-hot) > bound {
		t.Errorf("hot-item estimate %.1f outside %v±%.1f", est, hot, bound)
	}
	top := ns.HeavyHitters(3)
	if len(top) != 3 || top[0].Item != hotItem {
		t.Fatalf("top-3 = %+v, want item %d first", top, hotItem)
	}
	if all := ns.HeavyHitters(0); len(all) != layout.Domain {
		t.Errorf("unbounded ranking covers %d items, want the whole domain", len(all))
	}
	if _, _, err := ns.PointQuery(layout.Domain); !errors.Is(err, ErrBadConfig) {
		t.Error("point query accepted an out-of-domain item")
	}
	// Every row is an independently verifiable ΠBin epoch.
	for r, rr := range res.Rows {
		if err := Audit(pub, rr.Transcript); err != nil {
			t.Errorf("row %d transcript failed audit: %v", r, err)
		}
	}
	// The merged digest is the row digests folded in row order.
	ts := make([]*Transcript, len(res.Rows))
	for i, rr := range res.Rows {
		ts[i] = rr.Transcript
	}
	if !bytes.Equal(res.Digest, MergedTranscriptDigest(pub, ts)) {
		t.Error("sketch digest is not the merged row digest")
	}
}

// TestSketchHeavyHittersUtility is the utility check on a skewed population
// with several hitters and the budget ledger on: 60 % of the clients split
// evenly across the head items, the tail walks the rest of the domain
// round-robin, contributions arrive in batch frames. Every head item must
// be in the top k, every head estimate within the advertised ErrorBound of
// its true count, and the ledger must have charged every client.
func TestSketchHeavyHittersUtility(t *testing.T) {
	const clients, hot, k, frame = 80, 4, 8, 16
	layout := sketch.Layout{Rows: 3, Width: 16, Domain: 32}
	pub := testPublic(t, 1, layout.Width, 4)
	budget := &BudgetConfig{EpochCost: 1_000_000, Total: 10_000_000}
	hs, err := NewSketchSession(pub, layout, SessionOptions{Rand: testSeed(24), Parallelism: 2, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	head := clients * 6 / 10
	trueCounts := make([]int, layout.Domain)
	var contribs []*SketchContribution
	for id := 0; id < clients; id++ {
		item := id % hot
		if id >= head {
			item = hot + (id-head)%(layout.Domain-hot)
		}
		trueCounts[item]++
		c, err := hs.NewContribution(id, item)
		if err != nil {
			t.Fatal(err)
		}
		contribs = append(contribs, c)
	}
	for at := 0; at < clients; at += frame {
		verdicts, err := hs.SubmitBatch(ctx, contribs[at:at+frame])
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range verdicts {
			if v != nil {
				t.Fatalf("client %d refused: %v", at+i, v)
			}
		}
	}
	for id := 0; id < clients; id++ {
		if hs.BudgetSpent(id) == 0 {
			t.Errorf("ledger did not charge client %d", id)
		}
	}
	res, err := hs.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ns := res.Sketch
	inTop := map[int]bool{}
	for _, it := range ns.HeavyHitters(k) {
		inTop[it.Item] = true
	}
	bound := ns.ErrorBound()
	for item := 0; item < hot; item++ {
		if !inTop[item] {
			t.Errorf("head item %d (true count %d) missing from the top %d", item, trueCounts[item], k)
		}
		est, _, err := ns.PointQuery(item)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-float64(trueCounts[item])) > bound {
			t.Errorf("head item %d: estimate %.1f, true %d, outside the bound ±%.1f", item, est, trueCounts[item], bound)
		}
	}
}

// TestSketchBudgetGateEndToEnd is the durable acceptance flow: a sketch
// session with a one-epoch budget admits a client once (one charge, on row
// 0, covering all rows), refuses its next-epoch batch resubmission with an
// attributable verdict, finalizes, audits offline, resumes to a
// byte-identical ledger head, and tails live to the same head and merged
// digests.
func TestSketchBudgetGateEndToEnd(t *testing.T) {
	pub := testPublic(t, 1, 8, 4)
	layout := testLayout()
	cfg := &BudgetConfig{EpochCost: 1, Total: 1}
	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewSketchSession(pub, layout, SessionOptions{Rand: testSeed(23), Segmented: seg, Budget: cfg, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for id := 0; id < 4; id++ {
		c, err := hs.NewContribution(id, id%3)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.Submit(ctx, c); err != nil {
			t.Fatal(err)
		}
		if got := hs.BudgetSpent(id); got != 1 {
			t.Errorf("client %d spent %d µε after one contribution", id, got)
		}
	}
	res0, err := hs.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Reset(); err != nil {
		t.Fatal(err)
	}

	// Epoch 1, batched: client 0 is out of budget, clients 6 and 7 are
	// fresh. The refusal must name the budget, land only on row 0, and
	// leave the fresh clients admitted.
	var contribs []*SketchContribution
	for _, id := range []int{0, 6, 7} {
		c, err := hs.NewContribution(id, 5)
		if err != nil {
			t.Fatal(err)
		}
		contribs = append(contribs, c)
	}
	verdicts, err := hs.SubmitBatch(ctx, contribs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verdicts[0], ErrClientReject) || !isBudgetRefusalReason(verdicts[0].Error()) {
		t.Fatalf("over-budget batch verdict = %v", verdicts[0])
	}
	if verdicts[1] != nil || verdicts[2] != nil {
		t.Fatalf("fresh clients refused: %v, %v", verdicts[1], verdicts[2])
	}
	if hs.BudgetSpent(0) != 1 {
		t.Error("refusal changed client 0's spend")
	}
	res1, err := hs.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for r, rr := range res1.Rows {
		if _, rejected := rr.RejectedClients[0]; rejected != (r == 0) {
			t.Errorf("row %d rejection for client 0 = %v; the refusal belongs on row 0 only", r, rejected)
		}
		if r > 0 {
			for _, cp := range rr.Transcript.Clients {
				if cp.ID == 0 {
					t.Errorf("row %d seated the refused client", r)
				}
			}
		}
	}
	liveLedger := hs.LedgerDigest()

	// Offline audit, both epochs plus latest-selection.
	for _, epoch := range []int{0, 1, -1} {
		if err := AuditSketchLog(ctx, pub, layout, seg, epoch, 0); err != nil {
			t.Errorf("audit epoch %d: %v", epoch, err)
		}
	}

	// Crash-resume: the recovered session holds the identical ledger head
	// and still refuses the exhausted client.
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg2, err := store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	rs, err := ResumeSketchSession(ctx, pub, layout, SessionOptions{Rand: testSeed(23), Segmented: seg2, Budget: cfg, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Finalized() || rs.Epoch() != 1 {
		t.Errorf("resumed at epoch %d, finalized=%v", rs.Epoch(), rs.Finalized())
	}
	if !bytes.Equal(rs.LedgerDigest(), liveLedger) {
		t.Error("resumed ledger head differs from the live session's")
	}
	if err := rs.Reset(); err != nil {
		t.Fatal(err)
	}
	c, err := rs.NewContribution(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Submit(ctx, c); !errors.Is(err, ErrClientReject) || !isBudgetRefusalReason(err.Error()) {
		t.Errorf("resumed session admitted an exhausted client: %v", err)
	}

	// Live tail: every row replayed, merged digests confirmed, ledger head
	// byte-identical.
	st, err := TailSketchLog(pub, layout, seg2, TailOptions{Budget: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Poll(); err != nil {
		t.Fatal(err)
	}
	for epoch, want := range map[int][]byte{0: res0.Digest, 1: res1.Digest} {
		got, ready, err := st.VerifyMerged(epoch)
		if err != nil || !ready {
			t.Fatalf("epoch %d merged verify: ready=%v err=%v", epoch, ready, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("epoch %d tail digest differs from Finalize's", epoch)
		}
	}
	if !bytes.Equal(st.shards[0].LedgerDigest(), liveLedger) {
		t.Error("tail ledger head differs from the session's")
	}
}

// TestSketchRowGate: a contribution's row-1 submission sent straight to row
// 1's session seats its client on row 1 although row 0 — the row that admits
// and charges a contribution — never admitted it. The offline audit and the
// live tail both refuse the sealed epoch, with the same text.
func TestSketchRowGate(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 1, 8, 4)
	layout := testLayout()
	seg, err := store.OpenSegmentedLog(t.TempDir(), layout.Rows, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	hs, err := NewSketchSession(pub, layout, SessionOptions{Rand: testSeed(34), Segmented: seg, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		c, err := hs.NewContribution(id, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.Submit(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	stray, err := hs.NewContribution(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.segs[1].Submit(ctx, stray.Rows[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Finalize(ctx); err != nil {
		t.Fatal(err)
	}

	const want = "sketch row 1 seats client 9, which sketch row 0 never admitted"
	auditErr := AuditSketchLog(ctx, pub, layout, seg, 0, 2)
	st, err := TailSketchLog(pub, layout, seg, TailOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Poll(); err != nil {
		t.Fatal(err)
	}
	_, ready, tailErr := st.VerifyMerged(0)
	for _, r := range []struct {
		who string
		err error
	}{{"audit", auditErr}, {"tail", tailErr}} {
		if !errors.Is(r.err, ErrAuditFail) || !strings.Contains(r.err.Error(), want) {
			t.Errorf("%s: %v, want an audit failure saying %q", r.who, r.err, want)
		}
	}
	if ready || fmt.Sprint(tailErr) != fmt.Sprint(auditErr) {
		t.Errorf("tail (ready %v) said %v, the audit %v", ready, tailErr, auditErr)
	}
}

// TestSketchCrashRecoveryDigest: a sketch session killed mid-epoch and
// resumed from its segmented log finalizes to the same merged digest as an
// uninterrupted run under the same seed.
func TestSketchCrashRecoveryDigest(t *testing.T) {
	pub := testPublic(t, 1, 8, 4)
	layout := testLayout()
	items := sketchItems(8, 3, 5)
	contribs := make([]*SketchContribution, len(items))
	for i, item := range items {
		c, err := pub.NewSketchContribution(layout, i, item, testSeed(byte(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		contribs[i] = c
	}
	ctx := context.Background()

	run := func(opts SessionOptions, crashAt int) []byte {
		t.Helper()
		hs, err := NewSketchSession(pub, layout, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range contribs {
			if i == crashAt {
				return nil
			}
			if err := hs.Submit(ctx, c); err != nil {
				t.Fatal(err)
			}
		}
		res, err := hs.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}

	want := run(SessionOptions{Rand: testSeed(31), Parallelism: 3}, -1)

	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	run(SessionOptions{Rand: testSeed(31), Segmented: seg, Parallelism: 3}, 5)
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg2, err := store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	rs, err := ResumeSketchSession(ctx, pub, layout, SessionOptions{Rand: testSeed(31), Segmented: seg2, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range contribs[5:] {
		if err := rs.Submit(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := rs.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Digest, want) {
		t.Error("recovered merged digest differs from the uninterrupted run's")
	}
}

func TestSketchQueryWireRoundTrip(t *testing.T) {
	for _, q := range []*SketchQuery{
		{Kind: SketchQueryPoint, Arg: 7},
		{Kind: SketchQueryTopK, Arg: 10},
		{Kind: SketchQueryTopK, Arg: 0},
	} {
		back, err := DecodeSketchQuery(EncodeSketchQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind != q.Kind || back.Arg != q.Arg {
			t.Errorf("query round trip lost fields: %+v -> %+v", q, back)
		}
	}
	if _, err := DecodeSketchQuery(EncodeSketchQuery(&SketchQuery{Kind: 9, Arg: 1})); err == nil {
		t.Error("accepted an unknown query kind")
	}
	if _, err := DecodeSketchQuery([]byte{WireVersion, 0, 0}); err == nil {
		t.Error("accepted a truncated query")
	}

	items := []ItemEstimate{
		{Item: 5, Estimate: 12.25, Bound: 9.5},
		{Item: 0, Estimate: -1.5, Bound: 9.5},
	}
	back, err := DecodeItemEstimates(EncodeItemEstimates(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(items) || back[0] != items[0] || back[1] != items[1] {
		t.Errorf("estimates round trip lost fields: %+v", back)
	}
	if _, err := DecodeItemEstimates([]byte{WireVersion, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("accepted an absurd item count")
	}
}

func TestSketchAccessorsAndCompaction(t *testing.T) {
	pub := testPublic(t, 1, 8, 4)
	layout := testLayout()
	ctx := context.Background()

	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewSketchSession(pub, layout, SessionOptions{Rand: testSeed(77), Segmented: seg})
	if err != nil {
		t.Fatal(err)
	}
	if hs.layout != layout {
		t.Fatalf("layout = %+v, want %+v", hs.layout, layout)
	}
	if hs.Rows() != layout.Rows {
		t.Fatalf("Rows() = %d, want %d", hs.Rows(), layout.Rows)
	}
	for r := 0; r < hs.Rows(); r++ {
		if hs.segs[r] == nil {
			t.Fatalf("row %d is nil", r)
		}
	}
	if err := hs.Compact(); err == nil {
		t.Error("Compact before finalize accepted")
	}

	c, err := pub.NewSketchContribution(layout, 1, 3, testSeed(78))
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Submit(ctx, c); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if !hs.Finalized() {
		t.Fatal("sealed epoch not reported as finalized")
	}
	if err := hs.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if hs.Epoch() != 1 {
		t.Fatalf("epoch after Compact = %d, want 1", hs.Epoch())
	}
	if hs.Finalized() {
		t.Error("compacted session still reports finalized")
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	seg2, err := store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	rs, err := ResumeSketchSession(ctx, pub, layout, SessionOptions{Rand: testSeed(77), Segmented: seg2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Epoch() != 1 {
		t.Fatalf("recovered epoch = %d, want 1 (boot from the snapshot)", rs.Epoch())
	}
}
