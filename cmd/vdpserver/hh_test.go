package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sketch"
	"repro/internal/transport"
	"repro/internal/vdp"
)

func sketchTestPublic(t *testing.T, width, coins int) *vdp.Public {
	t.Helper()
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: width, Coins: coins})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

func TestParseLedgerFlag(t *testing.T) {
	if b, err := parseLedgerFlag(""); err != nil || b != nil {
		t.Fatalf("empty -ledger: budget=%v err=%v, want nil/nil", b, err)
	}
	b, err := parseLedgerFlag("0.5,1")
	if err != nil {
		t.Fatal(err)
	}
	if b.EpochCost != 500_000 || b.Total != 1_000_000 {
		t.Fatalf("parseLedgerFlag(\"0.5,1\") = %+v", b)
	}
	if got := ledgerDesc(b); got != "0.5ε/epoch of 1ε" {
		t.Fatalf("ledgerDesc = %q", got)
	}
	if got := ledgerDesc(nil); got != "off" {
		t.Fatalf("ledgerDesc(nil) = %q", got)
	}
	if _, err := parseLedgerFlag("nonsense"); err == nil {
		t.Fatal("malformed -ledger accepted")
	}
}

func TestOpenSketchSessionLifecycle(t *testing.T) {
	layout := sketch.Layout{Rows: 2, Width: 4, Domain: 8}
	pub := sketchTestPublic(t, layout.Width, 4)
	ctx := context.Background()

	// Memory mode: no store, no closer.
	hs, closer, err := openSketchSession(ctx, pub, layout, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if closer != nil {
		t.Error("memory mode returned a store closer")
	}

	// Durable: fresh dir, one contribution, seal, close.
	dir := t.TempDir()
	hs, closer, err = openSketchSession(ctx, pub, layout, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pub.NewSketchContribution(layout, 7, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Submit(ctx, c); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the sealed epoch: compacted forward to epoch 1.
	hs, closer, err = openSketchSession(ctx, pub, layout, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Epoch() != 1 {
		t.Fatalf("reopen over sealed epoch: epoch=%d, want 1", hs.Epoch())
	}
	// Leave epoch 1 open with one contribution and crash.
	c2, err := pub.NewSketchContribution(layout, 8, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Submit(ctx, c2); err != nil {
		t.Fatal(err)
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}

	// Reopen mid-epoch: resume in place with the roster intact.
	hs, closer, err = openSketchSession(ctx, pub, layout, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Epoch() != 1 || hs.Accepted() != 1 {
		t.Fatalf("mid-epoch resume: epoch=%d accepted=%d, want 1/1", hs.Epoch(), hs.Accepted())
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}

	// A directory holding an unsharded board log is refused.
	plain := t.TempDir()
	if err := os.WriteFile(filepath.Join(plain, boardLogName), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openSketchSession(ctx, pub, layout, nil, plain); err == nil {
		t.Error("unsharded board-log directory accepted for sketch mode")
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// roundTrip dials, exchanges one frame, and hangs up — the vdpclient usage
// pattern. One conn per exchange matters because the server drops the
// connection after answering a handler error with an "error" frame.
func roundTrip(t *testing.T, addr string, f *transport.Frame) *transport.Frame {
	t.Helper()
	opts := transport.ClientOptions{Timeout: 2 * time.Second}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := transport.DialClient(addr, opts)
		if err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("dialing %s: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		reply, err := c.RoundTrip(f)
		c.Close()
		if err != nil {
			t.Fatalf("round trip to %s: %v", addr, err)
		}
		return reply
	}
}

// TestRunSketchServesAnEpoch drives the serving loop end to end over real
// TCP: a pre-release query is refused, a foreign frame kind is explained,
// two contributions fill the epoch, and the released sketch answers top-k
// and point queries during the -serve-queries window.
func TestRunSketchServesAnEpoch(t *testing.T) {
	layout := sketch.Layout{Rows: 2, Width: 4, Domain: 8}
	pub := sketchTestPublic(t, layout.Width, 4)
	budget, err := vdp.ParseBudget("0.5,1")
	if err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runSketch(ctx, pub, layout, budget, addr, "", 2, 10*time.Second, time.Minute)
	}()

	topQuery := &transport.Frame{Kind: "sketch-query",
		Payload: vdp.EncodeSketchQuery(&vdp.SketchQuery{Kind: vdp.SketchQueryTopK, Arg: 3})}
	reply := roundTrip(t, addr, topQuery)
	if reply.Kind != "error" || !strings.Contains(string(reply.Payload), "still collecting") {
		t.Fatalf("pre-release query got %q %q, want a still-collecting refusal", reply.Kind, reply.Payload)
	}

	reply = roundTrip(t, addr, &transport.Frame{Kind: "submit"})
	if reply.Kind != "error" || !strings.Contains(string(reply.Payload), "sketch mode") {
		t.Fatalf("plain submit got %q %q, want the sketch-mode explainer", reply.Kind, reply.Payload)
	}

	var subs []*vdp.ClientSubmission
	for id := 0; id < 2; id++ {
		ct, err := pub.NewSketchContribution(layout, id, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, ct.Rows...)
	}
	reply = roundTrip(t, addr, &transport.Frame{Kind: "submit-batch", Payload: pub.EncodeSubmissionBatch(subs)})
	if reply.Kind != "batch-verdicts" {
		t.Fatalf("submit-batch got %q %q", reply.Kind, reply.Payload)
	}
	verdicts, err := vdp.DecodeBatchVerdicts(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want one per contribution (2)", len(verdicts))
	}
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("client %d refused: %s", v.ID, v.Reason)
		}
	}

	// The epoch is full; poll until the release is being served.
	deadline := time.Now().Add(15 * time.Second)
	var items []vdp.ItemEstimate
	for {
		reply = roundTrip(t, addr, topQuery)
		if reply.Kind == "sketch-estimates" {
			if items, err = vdp.DecodeItemEstimates(reply.Payload); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("release never served: last reply %q %q", reply.Kind, reply.Payload)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(items) != 3 {
		t.Fatalf("top-3 returned %d items", len(items))
	}

	reply = roundTrip(t, addr, &transport.Frame{Kind: "sketch-query",
		Payload: vdp.EncodeSketchQuery(&vdp.SketchQuery{Kind: vdp.SketchQueryPoint, Arg: 5})})
	if reply.Kind != "sketch-estimates" {
		t.Fatalf("point query got %q %q", reply.Kind, reply.Payload)
	}
	pts, err := vdp.DecodeItemEstimates(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Item != 5 {
		t.Fatalf("point query returned %+v, want one estimate for item 5", pts)
	}
	// Both contributions reported item 5; the debiased estimate must sit
	// within the advertised bound of the true count.
	if diff := pts[0].Estimate - 2; diff > pts[0].Bound || -diff > pts[0].Bound {
		t.Errorf("point estimate %.1f is further than ±%.1f from the true count 2", pts[0].Estimate, pts[0].Bound)
	}

	cancel() // ends the serve window early
	wg.Wait()
}

// TestRunSketchAbortsEmptyEpoch: a signal before any admission shuts down
// without a release.
func TestRunSketchAbortsEmptyEpoch(t *testing.T) {
	layout := sketch.Layout{Rows: 2, Width: 4, Domain: 8}
	pub := sketchTestPublic(t, layout.Width, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runSketch(ctx, pub, layout, nil, "127.0.0.1:0", "", 1, time.Second, 0)
}
