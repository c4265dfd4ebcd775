package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vdp"
)

// The chaos matrix: every fault kind the transport can inject, at every hop a
// cluster round trip crosses (client→router, router→node, primary→standby
// mirror), over a flooded epoch on a two-shard replica-set cluster — all four
// processes per shard real TCP listeners. The invariants under every fault:
// no accepted submission is ever lost, the cluster converges without operator
// action, the merged digest is byte-identical to a fault-free single-process
// run over the same arrival order, and the cross-node audit passes.

// chaosClientOptions bounds each client leg tightly: a dropped frame costs
// one read-deadline wait, so short deadlines are what keep the matrix fast.
func chaosClientOptions(dial func(string, time.Duration) (net.Conn, error)) transport.ClientOptions {
	return transport.ClientOptions{Timeout: 750 * time.Millisecond, Retry: testRetry(), Dial: dial}
}

// chaosSubmit pushes one submission until it is admitted, dialing a fresh
// connection per attempt — a one-shot conn can never be desynced by a stale
// queued reply, which makes the client the fixed point the fault injection is
// measured against. A duplicate rejection counts as success: it means an
// earlier attempt was admitted and only its reply was lost in flight, the
// standard at-least-once submission contract.
func chaosSubmit(t *testing.T, pub *vdp.Public, addr string, copts transport.ClientOptions, sub *vdp.ClientSubmission) {
	t.Helper()
	payload := pub.EncodeClientSubmission(sub)
	for attempt := 0; attempt < 12; attempt++ {
		if attempt > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		cli, err := transport.DialClient(addr, copts)
		if err != nil {
			continue
		}
		reply, err := cli.RoundTrip(&transport.Frame{Kind: "submit", Sender: sub.Public.ID, Payload: payload})
		cli.Close()
		if err != nil {
			continue
		}
		if reply.Kind == "ack" {
			return
		}
		if reply.Kind == "error" && strings.Contains(string(reply.Payload), "duplicate") {
			return
		}
	}
	t.Fatalf("client %d was never admitted", sub.Public.ID)
}

// chaosReference replays the same submissions, in the same arrival order,
// through a fault-free single-process ShardedSession on the cluster's root
// seed and returns its sealed digest — the byte-identity target.
func chaosReference(t *testing.T, ctx context.Context, pub *vdp.Public, k int, subs []*vdp.ClientSubmission) []byte {
	t.Helper()
	ref, err := vdp.NewShardedSession(pub, vdp.SessionOptions{
		Rand: bytes.NewReader(rootSeed()), Shards: k, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := ref.Submit(ctx, sub); err != nil {
			t.Fatalf("reference rejected client %d: %v", sub.Public.ID, err)
		}
	}
	res, err := ref.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest
}

// TestChaosMatrix sweeps fault kind × injection hop. Each cell boots a fresh
// two-shard cluster of replica pairs, arms one deterministic FaultPlan on one
// hop, floods an epoch through a retrying client, and then requires full
// convergence: every submission admitted exactly once, finalize-merge green,
// digest parity with the fault-free reference, cross-node audit passing.
func TestChaosMatrix(t *testing.T) {
	const k, n = 2, 6
	pub := testPub(t)
	ctx := context.Background()
	// Proof generation dominates; the same submissions drive every cell
	// (each cell is a fresh cluster at epoch 0, so re-admission is clean).
	subs := buildSubs(t, pub, 0, n)

	kinds := []transport.ConnFault{transport.ConnDrop, transport.ConnDelay, transport.ConnSever, transport.ConnDup}
	for _, hop := range []string{"client", "router", "mirror"} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", hop, kind), func(t *testing.T) {
				runChaosCase(t, ctx, pub, subs, hop, kind)
			})
		}
	}
}

func runChaosCase(t *testing.T, ctx context.Context, pub *vdp.Public, subs []*vdp.ClientSubmission, hop string, kind transport.ConnFault) {
	const k = 2
	// Stagger the trip by kind so the matrix also varies the injection point
	// within the flood; every index fires well inside n submissions' frames.
	plan := &transport.FaultPlan{Kind: kind, Trip: int(kind), Delay: 25 * time.Millisecond}
	var clientDial, routerDial, mirrorDial func(string, time.Duration) (net.Conn, error)
	switch hop {
	case "client":
		clientDial = plan.Dialer()
	case "router":
		routerDial = plan.Dialer()
	case "mirror":
		mirrorDial = plan.Dialer()
	}

	specs := make([]string, k)
	for i := 0; i < k; i++ {
		sb := startStandby(t, ctx, pub, i, k)
		defer sb.stop()
		pr := startPrimary(t, ctx, pub, i, k, sb.addr, mirrorDial)
		defer pr.stop()
		specs[i] = pr.addr + "~" + sb.addr
	}
	router, err := New(Config{Pub: pub, Backends: specs, Timeout: 750 * time.Millisecond, Retry: testRetry(), Dial: routerDial})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	srv, err := transport.Listen("127.0.0.1:0", router.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	copts := chaosClientOptions(clientDial)
	for _, sub := range subs {
		chaosSubmit(t, pub, srv.Addr(), copts, sub)
	}
	if !plan.Tripped() {
		t.Fatalf("the %s fault on the %s hop never fired", kind, hop)
	}

	// A fault can leave a backend conn freshly desynced or a mirror flush
	// still catching up; the handshake is idempotent, so a bounded retry is
	// the whole recovery story.
	var res *MergeResult
	for attempt := 0; ; attempt++ {
		res, err = router.FinalizeMerge(ctx)
		if err == nil {
			break
		}
		if attempt >= 4 {
			t.Fatalf("finalize-merge after chaos: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	if want := chaosReference(t, ctx, pub, k, subs); !bytes.Equal(res.Digest, want) {
		t.Fatalf("digest under %s/%s diverged from the fault-free run:\n cluster %x\n single  %x", hop, kind, res.Digest, want)
	}

	report, err := router.AuditCluster(ctx, -1, 2)
	if err != nil {
		t.Fatalf("cross-node audit after %s/%s: %v", hop, kind, err)
	}
	if !bytes.Equal(report.Digest, res.Digest) {
		t.Fatalf("audit digest %x does not match sealed %x", report.Digest, res.Digest)
	}

	sts, err := router.Statuses()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range sts {
		total += st.Accepted
	}
	if total != len(subs) {
		t.Fatalf("cluster holds %d accepted submissions after %s/%s, want %d — a submission was lost or double-admitted",
			total, hop, kind, len(subs))
	}
}

// TestChaosPrimaryKillMidFlood is the headline failover drill: a primary is
// killed in the middle of a flood and the router — with no operator action —
// promotes its standby via the fenced handshake and keeps admitting, with
// zero client-visible errors. A live TailFollower rides through the failover
// on the same shard (switching replicas, cursor intact) and still certifies
// the merged epoch; the stale primary is fenced forever; and the digest
// matches the fault-free single-process run.
func TestChaosPrimaryKillMidFlood(t *testing.T) {
	const k, n = 2, 10
	pub := testPub(t)
	ctx := context.Background()

	sbs := make([]*testStandby, k)
	prs := make([]*replicaPrimary, k)
	specs := make([]string, k)
	for i := 0; i < k; i++ {
		sbs[i] = startStandby(t, ctx, pub, i, k)
		defer sbs[i].stop()
		prs[i] = startPrimary(t, ctx, pub, i, k, sbs[i].addr, nil)
		defer prs[i].stop()
		specs[i] = prs[i].addr + "~" + sbs[i].addr
	}
	router, err := New(Config{Pub: pub, Backends: specs, Timeout: 2 * time.Second, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	handler := router.Handler()

	fol, err := NewTailFollower(pub, testBackends(specs), vdp.TailOptions{})
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}

	subs := buildSubs(t, pub, 0, n)
	for i, sub := range subs {
		if i == n/2 {
			// The router's periodic status sweep is what records each
			// backend's acknowledged log length — the fencing floor a
			// promotion must clear.
			if _, err := router.Statuses(); err != nil {
				t.Fatalf("pre-kill statuses: %v", err)
			}
			// The follower is mid-tail with a non-zero cursor on the doomed
			// shard; the cursor must survive the replica switch.
			if _, err := fol.Poll(); err != nil {
				t.Fatalf("pre-kill poll: %v", err)
			}
			prs[0].srv.Close() // kill shard 0's primary mid-flood
		}
		if reply := submitSingle(t, pub, handler, sub); reply.Kind != "ack" {
			t.Fatalf("client %d during the failover window: %q (%s)", sub.Public.ID, reply.Kind, reply.Payload)
		}
	}

	if !sbs[0].sb.Promoted() {
		t.Fatal("shard 0's standby was not promoted by the router")
	}
	if sbs[1].sb.Promoted() {
		t.Fatal("the healthy shard's standby was promoted")
	}
	if got := router.backends[0].Addr(); got != sbs[0].addr {
		t.Fatalf("shard 0 backend active on %s, want the promoted standby %s", got, sbs[0].addr)
	}

	// Split brain is impossible: the stale primary's next acknowledgment
	// attempt dies on the fence, even though its process is still running.
	for id := 1000; ; id++ {
		if vdp.ShardOf(id, k) != 0 {
			continue
		}
		sub, err := pub.NewClientSubmission(id, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = prs[0].node.Submit(ctx, sub)
		if err == nil {
			t.Fatalf("stale primary admitted client %d after the failover: split brain", id)
		}
		if !errors.Is(err, ErrFenced) && !strings.Contains(err.Error(), fencedMsg) {
			t.Fatalf("stale primary failed with %v, want the fence", err)
		}
		break
	}
	if !fenced(prs[0].repl) {
		t.Fatal("stale primary's replicator does not report fenced")
	}

	res, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatalf("finalize-merge across the failover: %v", err)
	}
	if want := chaosReference(t, ctx, pub, k, subs); !bytes.Equal(res.Digest, want) {
		t.Fatalf("digest across the failover diverged:\n cluster %x\n single  %x", res.Digest, want)
	}

	// The live follower — which watched the whole epoch, half of it through
	// the dead primary and half through the promoted standby — certifies the
	// merged epoch on its own evidence.
	certifyNext(t, fol, 0, res.Digest)

	sts, err := router.Statuses()
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Standby {
		t.Fatal("shard 0's status still claims standby after promotion")
	}
	total := 0
	for _, st := range sts {
		total += st.Accepted
	}
	if total != n {
		t.Fatalf("cluster holds %d accepted submissions, want %d", total, n)
	}
}
