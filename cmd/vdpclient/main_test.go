package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// testCurator is an in-process sketch-mode server — vdpserver's dispatch
// without its serve loop — to drive the client-side paths over real TCP.
func testCurator(t *testing.T, pub *vdp.Public, hs *vdp.SketchSession) (addr string, release func()) {
	t.Helper()
	ctx := context.Background()
	board := server.NewSketch(hs)
	srv, err := transport.Listen("127.0.0.1:0", server.New(ctx, pub, board, server.Options{Extra: board.Extra}).Handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv.Addr(), func() {
		res, err := hs.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		board.Release(res.Sketch)
	}
}

// TestSketchClientRoundTrips drives submitSketch and querySketch against a
// live curator. The helpers log.Fatal / os.Exit(1) on any refusal or
// decode failure, so reaching the end of the test is the assertion.
func TestSketchClientRoundTrips(t *testing.T) {
	layout := sketch.Layout{Rows: 2, Width: 4, Domain: 8}
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: layout.Width, Coins: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := vdp.NewSketchSession(pub, layout, vdp.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr, release := testCurator(t, pub, hs)
	opts := transport.ClientOptions{Timeout: 2 * time.Second}

	submitSketch(pub, layout, addr, 10, 5, 2, opts)
	if got := hs.Accepted(); got != 2 {
		t.Fatalf("curator admitted %d contributions, want 2", got)
	}
	release()
	querySketch(addr, "top:3", opts)
	querySketch(addr, "point:5", opts)
}

// TestAuditSketchOffline seals a durable sketch epoch and replays it
// through the auditor entrypoint (log.Fatal on any audit failure).
func TestAuditSketchOffline(t *testing.T) {
	layout := sketch.Layout{Rows: 2, Width: 4, Domain: 8}
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: layout.Width, Coins: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := vdp.NewSketchSession(pub, layout, vdp.SessionOptions{Segmented: seg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := pub.NewSketchContribution(layout, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Submit(ctx, c); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	auditSketch(pub, layout, dir, -1, 5*time.Second)
}

// TestFrameFits: a -batch whose frame is over the transport's limit — 4096
// twelve-bin submissions, ~18.7 MiB with their point hints — is refused with
// the largest -batch that fits, which does fit while one more does not, in
// submissions and in whole sketch contributions. The refusal comes after the
// first client is built, before any other is proved.
func TestFrameFits(t *testing.T) {
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: 12, Coins: 4})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pub.NewClientSubmission(0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, perClient := range []int{1, 3} {
		built := 0
		build := func(int) ([]*vdp.ClientSubmission, error) {
			built++
			one := make([]*vdp.ClientSubmission, perClient)
			for i := range one {
				one[i] = sub
			}
			return one, nil
		}
		n := vdp.MaxBatchClients / perClient
		_, err := buildFrame(pub, n, build)
		if err == nil {
			t.Fatalf("%d clients of %d submissions each fit under the %d-byte limit", n, perClient, transport.MaxFrameSize)
		}
		if built != 1 {
			t.Errorf("refusing -batch %d built %d clients, want 1", n, built)
		}
		var largest int
		if _, scanErr := fmt.Sscanf(err.Error()[strings.LastIndex(err.Error(), " ")+1:], "%d", &largest); scanErr != nil {
			t.Fatalf("%v names no largest -batch", err)
		}
		if !strings.HasPrefix(err.Error(), fmt.Sprintf("-batch %d encodes to", n)) {
			t.Errorf("refusal %q does not name -batch %d", err, n)
		}
		built = 0
		subs, err := buildFrame(pub, largest, build)
		if err != nil {
			t.Fatalf("the largest -batch is refused: %v", err)
		}
		if built != largest || len(subs) != largest*perClient {
			t.Fatalf("-batch %d built %d clients into %d submissions", largest, built, len(subs))
		}
		if len(pub.EncodeSubmissionBatch(subs)) > transport.MaxFrameSize ||
			len(pub.EncodeSubmissionBatch(append(subs, subs[:perClient]...))) <= transport.MaxFrameSize {
			t.Errorf("%d clients of %d submissions each is not the largest -batch that fits", largest, perClient)
		}
	}
}
