package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/vdp"
)

// Heavy-hitters serving mode (-sketch RxWxD): the board is a SketchSession —
// one ΠBin sub-session per count-min row — and each client's contribution is
// W committed one-hot vectors riding a single "submit-batch" frame (rows in
// row order, all under the client's ID; vdpclient -sketch -item sends
// exactly this). Once -clients contributions are admitted (or on signal) the
// session finalizes into a verifiable noisy sketch, the top of the ranking
// is printed, and — unlike the histogram modes — the listener stays up:
// "sketch-query" frames (vdpclient -query) are answered from the released
// sketch for the -serve-queries window, so the release is not just a line in
// a log but a queryable artifact whose every cell is pinned by the merged
// transcript digest. Contribution grouping and the query replies live with
// the shared dispatch (server.Sketch).

// runSketch serves one heavy-hitters epoch end to end: admission, finalize,
// and the post-release query window. A contribution counts as accepted when
// every row admitted it — live and after a restart alike
// (SketchSession.Accepted).
func runSketch(ctx context.Context, pub *vdp.Public, layout sketch.Layout, budget *vdp.BudgetConfig,
	addr, storeDir string, clients int, grace, serveFor time.Duration) {
	hs, closeStore, err := openSketchSession(ctx, pub, layout, budget, storeDir)
	if err != nil {
		log.Fatal(err)
	}
	if closeStore != nil {
		defer closeStore()
	}

	board := server.NewSketch(hs)
	d := server.New(ctx, pub, board, server.Options{
		Accepted: hs.Accepted(), Target: clients, Extra: board.Extra,
		Logf: log.Printf, Label: "sketch: ",
	})
	drain := serve(ctx, addr, d, grace, "verifiable heavy-hitters curator", fmt.Sprintf("%dx%d sketch, domain %d, nb=%d, ledger=%s, store=%s",
		layout.Rows, layout.Width, layout.Domain, pub.Coins(), ledgerDesc(budget), storeDesc(storeDir)))
	defer drain()

	n := d.Accepted()
	if n == 0 {
		log.Printf("no accepted contributions; aborting the epoch without a release")
		return
	}
	if n < clients {
		log.Printf("finalizing early with %d/%d contributions", n, clients)
	}

	// The listener stays up across Finalize so queries can land the moment
	// the release exists; a contribution racing the close gets an error
	// frame from the now-finalizing session, which is the honest answer.
	finalizeCtx, cancelFinalize := context.WithTimeout(context.Background(), grace)
	defer cancelFinalize()
	res, err := hs.Finalize(finalizeCtx)
	if err != nil {
		log.Fatalf("sketch finalize failed: %v", err)
	}
	board.Release(res.Sketch)

	fmt.Printf("verifiable noisy sketch released: %dx%d over domain %d, %d contribution(s), error bound ±%.1f\n",
		layout.Rows, layout.Width, layout.Domain, res.Sketch.Count, res.Sketch.ErrorBound())
	for rank, it := range res.Sketch.HeavyHitters(10) {
		fmt.Printf("  #%-2d item %d: estimate %.1f (±%.1f)\n", rank+1, it.Item, it.Estimate, it.Bound)
	}
	fmt.Printf("merged transcript digest %x...\n", res.Digest[:8])
	if len(res.RejectedClients) > 0 {
		fmt.Printf("rejected clients: %d (each with a board-recorded verdict)\n", len(res.RejectedClients))
	}
	if storeDir != "" {
		fmt.Printf("epoch %d sealed across %d row segments in %s; audit offline with: vdpclient -sketch %dx%dx%d -audit-store %s\n",
			hs.Epoch(), layout.Rows, storeDir, layout.Rows, layout.Width, layout.Domain, storeDir)
	}

	if serveFor > 0 {
		log.Printf("serving queries for %v (vdpclient -query top:K | point:ITEM)", serveFor)
		select {
		case <-time.After(serveFor):
		case <-ctx.Done():
		}
	}
}

// openSketchSession is openSession's sketch counterpart: the store is a
// segmented log whose segments are count-min rows.
func openSketchSession(ctx context.Context, pub *vdp.Public, layout sketch.Layout, budget *vdp.BudgetConfig, storeDir string) (*vdp.SketchSession, func() error, error) {
	seg, closeStore, err := openSegments(storeDir, layout.Rows)
	if err != nil {
		return nil, nil, err
	}
	opts := vdp.SessionOptions{Segmented: seg, Budget: budget}
	return openOrRecover("sketch store", seg == nil || seg.Empty(), closeStore,
		func() (*vdp.SketchSession, error) { return vdp.NewSketchSession(pub, layout, opts) },
		func() (*vdp.SketchSession, error) { return vdp.ResumeSketchSession(ctx, pub, layout, opts) })
}
