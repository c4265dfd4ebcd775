package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// testStandby is one in-process warm replica with a controllable lifecycle.
type testStandby struct {
	addr  string
	srv   *transport.Server
	sb    *Standby
	board store.Log
	seal  store.Log
}

// startStandby boots a standby for one shard over in-memory mirror logs,
// seeded with the same root seed as the primaries so a promotion finalizes
// byte-identically.
func startStandby(t *testing.T, ctx context.Context, pub *vdp.Public, shard, shards int) *testStandby {
	t.Helper()
	s := &testStandby{board: store.NewMemLog(), seal: store.NewMemLog()}
	var err error
	s.sb, err = NewStandby(ctx, pub, StandbyConfig{
		Shard: shard, Shards: shards, Board: s.board, Seal: s.seal,
		SessionOpts: vdp.SessionOptions{Rand: bytes.NewReader(rootSeed()), Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.srv, err = transport.Listen("127.0.0.1:0", replicaHandler(ctx, pub, s.sb))
	if err != nil {
		t.Fatal(err)
	}
	s.addr = s.srv.Addr()
	return s
}

func (s *testStandby) stop() { s.srv.Close() }

// replicaPrimary is a primary node whose logs mirror to a standby through a
// Replicator before anything is acknowledged.
type replicaPrimary struct {
	addr  string
	srv   *transport.Server
	node  *Node
	repl  *Replicator
	board *store.ReplicatedLog
	// boardMirror is the board's mirror target; a test that replaces the
	// standby repoints it, keeping the board's acked count.
	boardMirror atomic.Pointer[store.MirrorFunc]
}

// startPrimary boots a replica-set primary over in-memory logs mirrored to
// standbyAddr. mirrorDial, when non-nil, hooks the replication connection
// (the chaos harness's fault-injection seam).
func startPrimary(t *testing.T, ctx context.Context, pub *vdp.Public, shard, shards int, standbyAddr string,
	mirrorDial func(string, time.Duration) (net.Conn, error)) *replicaPrimary {
	t.Helper()
	p := &replicaPrimary{}
	p.repl = NewReplicator(standbyAddr, shard, shards, transport.ClientOptions{
		Timeout: 2 * time.Second, Retry: testRetry(), Dial: mirrorDial,
	})
	var err error
	mirror := p.repl.Mirror(ReplLogBoard)
	p.boardMirror.Store(&mirror)
	p.board, err = store.NewReplicatedLog(store.NewMemLog(), func(start int, recs []*store.Record) (int, error) {
		return (*p.boardMirror.Load())(start, recs)
	})
	if err != nil {
		t.Fatal(err)
	}
	seal, err := store.NewReplicatedLog(store.NewMemLog(), p.repl.Mirror(ReplLogSeal))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := vdp.NewShardSession(pub, vdp.SessionOptions{
		Rand: bytes.NewReader(rootSeed()), Store: p.board, Parallelism: 2,
	}, shard, shards)
	if err != nil {
		t.Fatal(err)
	}
	p.node, err = NewNode(ctx, pub, sess, NodeConfig{Shard: shard, Shards: shards, BoardLog: p.board, SealLog: seal})
	if err != nil {
		t.Fatal(err)
	}
	p.srv, err = transport.Listen("127.0.0.1:0", replicaHandler(ctx, pub, p.node))
	if err != nil {
		t.Fatal(err)
	}
	p.addr = p.srv.Addr()
	return p
}

func (p *replicaPrimary) stop() {
	p.srv.Close()
	p.repl.Close()
}

// TestReplicaMirrorAndFencedPromotion pins the tentpole invariants at the
// package level: every acknowledged record is on the standby before the ack
// (synchronous mirroring), promotion resumes a working node from the mirror,
// and the fence is absolute — the old primary can never acknowledge again.
func TestReplicaMirrorAndFencedPromotion(t *testing.T) {
	const k = 2
	pub := testPub(t)
	ctx := context.Background()

	sb := startStandby(t, ctx, pub, 0, k)
	defer sb.stop()
	pr := startPrimary(t, ctx, pub, 0, k, sb.addr, nil)
	defer pr.stop()

	// Land a few shard-0 submissions directly on the primary node.
	landed := 0
	for id := 0; landed < 3; id++ {
		if vdp.ShardOf(id, k) != 0 {
			continue
		}
		sub, err := pub.NewClientSubmission(id, id%2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.node.Submit(ctx, sub); err != nil {
			t.Fatalf("submit client %d: %v", id, err)
		}
		landed++
		// Synchronous mirroring: the ack implies the standby holds every
		// record the primary's published prefix holds.
		if got, want := sb.sb.MirroredRecords(), pr.board.Len(); got != want {
			t.Fatalf("after client %d: standby mirrors %d records, primary acked %d", id, got, want)
		}
	}
	if pr.board.Len() == 0 {
		t.Fatal("nothing mirrored")
	}

	// The primary's status advertises the acked prefix, which is the fencing
	// floor the router carries into promotion.
	st := pr.node.Status()
	if st.LogLen != pr.board.Len() {
		t.Fatalf("primary status LogLen=%d, want acked=%d", st.LogLen, pr.board.Len())
	}

	// Promote through the Backend handshake, exactly as the router would:
	// kill the primary, fail over with its last observed status as the fence.
	b := NewBackend([]string{pr.addr, sb.addr}, 0, transport.ClientOptions{Timeout: 2 * time.Second, Retry: testRetry()})
	defer b.Close()
	b.noteStatus(st)
	pr.srv.Close()
	if err := b.Failover(k); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if !sb.sb.Promoted() {
		t.Fatal("standby not promoted")
	}
	if b.Addr() != sb.addr {
		t.Fatalf("backend active on %s after failover, want %s", b.Addr(), sb.addr)
	}

	// The promoted node serves the shard: a new submission lands, a replayed
	// one is rejected as a duplicate (state carried over through the mirror).
	node := sb.sb.Node()
	for id := 0; ; id++ {
		if vdp.ShardOf(id, k) != 0 {
			continue
		}
		sub, err := pub.NewClientSubmission(id, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = node.Submit(ctx, sub)
		if id < 6 { // one of the pre-failover IDs
			if err == nil || !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("replaying pre-failover client %d: %v, want duplicate rejection", id, err)
			}
			break
		}
	}
	fresh := 0
	for id := 100; fresh < 1; id++ {
		if vdp.ShardOf(id, k) != 0 {
			continue
		}
		sub, err := pub.NewClientSubmission(id, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Submit(ctx, sub); err != nil {
			t.Fatalf("post-promotion submit: %v", err)
		}
		fresh++
	}

	// The fence: the stale primary can never acknowledge a submission again —
	// its next mirror flush is refused terminally by the promoted standby.
	for id := 200; ; id++ {
		if vdp.ShardOf(id, k) != 0 {
			continue
		}
		sub, err := pub.NewClientSubmission(id, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = pr.node.Submit(ctx, sub)
		if err == nil {
			t.Fatalf("stale primary admitted client %d: split brain", id)
		}
		if !errors.Is(err, ErrFenced) && !strings.Contains(err.Error(), fencedMsg) {
			t.Fatalf("stale primary submit failed with %v, want the fence", err)
		}
		break
	}
	if !fenced(pr.repl) {
		t.Fatal("replicator does not report fenced")
	}
	// Fenced is forever: even a bare flush of the now-pending record fails.
	if err := pr.board.Flush(); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale primary flush returned %v, want ErrFenced", err)
	}

	// Promotion is idempotent: a second handshake adopts the existing node.
	if err := b.Failover(k); err == nil {
		t.Log("second failover adopted the promoted node")
	}
}

// TestStandbyPromotionFence pins the promotion guards: a mirror shorter than
// the router's acknowledged floor is refused (it would rewrite history), and
// a lagging promote expectation cannot un-fence a promoted standby.
func TestStandbyPromotionFence(t *testing.T) {
	const k = 2
	pub := testPub(t)
	ctx := context.Background()

	sb := startStandby(t, ctx, pub, 0, k)
	defer sb.stop()

	// Router believes 5 records were acknowledged; the mirror holds 0.
	reply := sb.sb.handle(&transport.Frame{Kind: KindPromote, Payload: encodePromoteReq(0, 5)})
	if reply.Kind != KindError || !strings.Contains(string(reply.Payload), "refusing to rewrite acknowledged history") {
		t.Fatalf("short-mirror promotion answered %q (%s)", reply.Kind, reply.Payload)
	}
	if sb.sb.Promoted() {
		t.Fatal("short-mirror promotion went through")
	}

	// With a truthful floor the promotion succeeds.
	reply = sb.sb.handle(&transport.Frame{Kind: KindPromote, Payload: encodePromoteReq(0, 0)})
	if reply.Kind != okKind(KindPromote) {
		t.Fatalf("promotion failed: %s", reply.Payload)
	}
	st, err := decodeStatus(reply.Payload)
	if err != nil || st.Standby {
		t.Fatalf("promoted status: %+v, %v", st, err)
	}

	// Replication is refused terminally from the moment of promotion.
	rec := &store.Record{Kind: 1, Epoch: 0, Payload: []byte("late")}
	payload, err := encodeReplicate(0, k, ReplLogBoard, 0, []*store.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	reply = sb.sb.handle(&transport.Frame{Kind: KindReplicate, Payload: payload})
	if reply.Kind != KindError || !strings.Contains(string(reply.Payload), fencedMsg) {
		t.Fatalf("post-promotion replicate answered %q (%s), want the fence", reply.Kind, reply.Payload)
	}
}

// TestStandbyRefusesHostileRecordCount: an 18-byte replicate-append whose
// record count claims 2³²−1 records is answered with node-error. The count is
// hostile input: it is checked against the bytes present and sizes no
// allocation, so the standby neither dies nor mirrors anything.
func TestStandbyRefusesHostileRecordCount(t *testing.T) {
	sb, err := NewStandby(context.Background(), testPub(t), StandbyConfig{
		Shards: 1, Board: store.NewMemLog(), Seal: store.NewMemLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{rpcVersion, 0, 0, 0, 0, 0, 0, 0, 1, ReplLogBoard, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	replies := sb.Handle(&transport.Frame{Kind: KindReplicate, Payload: payload})
	if len(replies) != 1 || replies[0].Kind != KindError {
		t.Fatalf("hostile record count answered %+v, want one %s reply", replies, KindError)
	}
	if n := sb.MirroredRecords(); n != 0 {
		t.Fatalf("the standby mirrored %d records from a frame that carries none", n)
	}
}

// TestDecodeStatusRefusesUnknownFlags: a status flag byte with a bit outside
// the three defined flags is refused, not read as false.
func TestDecodeStatusRefusesUnknownFlags(t *testing.T) {
	enc := encodeStatus(&NodeStatus{Shards: 1, Standby: true})
	for _, bit := range []byte{1 << 2, 1 << 4, 1 << 7} {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] |= bit
		if st, err := decodeStatus(bad); err == nil {
			t.Errorf("flag bit %#x accepted as %+v", bit, st)
		}
	}
}

// TestReplicateGapRewind drives the standby-behind path over the wire: the
// primary believes records are mirrored, the standby restarts empty, and the
// next flush rewinds and re-ships everything.
func TestReplicateGapRewind(t *testing.T) {
	const k = 2
	pub := testPub(t)
	ctx := context.Background()

	sb := startStandby(t, ctx, pub, 0, k)
	defer sb.stop()
	pr := startPrimary(t, ctx, pub, 0, k, sb.addr, nil)
	defer pr.stop()

	for id, landed := 0, 0; landed < 2; id++ {
		if vdp.ShardOf(id, k) != 0 {
			continue
		}
		sub, err := pub.NewClientSubmission(id, id%2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.node.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
		landed++
	}
	mirrored := sb.sb.MirroredRecords()
	if mirrored == 0 {
		t.Fatal("nothing mirrored")
	}

	// The standby is replaced by an empty one on a fresh address; the
	// primary's replicator still points at the old (now dead) one, so swap
	// in a new replicator-backed mirror... simpler: restart the standby
	// empty on the SAME address is racy with ports, so instead sever at the
	// stream level: stop the old standby, boot a new one, and point a new
	// primary flush at it through the same ReplicatedLog by redialing.
	sb.stop()
	sb2 := startStandby(t, ctx, pub, 0, k)
	defer sb2.stop()
	// Rewire the replicator target by building a new one on the same logs:
	// the ReplicatedLog's acked count still claims `mirrored`, the new
	// standby holds 0 — exactly the MirrorGapError path.
	mirror := NewReplicator(sb2.addr, 0, k, transport.ClientOptions{
		Timeout: 2 * time.Second, Retry: testRetry(),
	}).Mirror(ReplLogBoard)
	pr.boardMirror.Store(&mirror)

	for id, landed := 100, 0; landed < 1; id++ {
		if vdp.ShardOf(id, k) != 0 {
			continue
		}
		sub, err := pub.NewClientSubmission(id, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.node.Submit(ctx, sub); err != nil {
			t.Fatalf("submit after standby replacement: %v", err)
		}
		landed++
	}
	if got := sb2.sb.MirroredRecords(); got != pr.board.Len() {
		t.Fatalf("replacement standby mirrors %d records, primary acked %d — rewind did not re-ship", got, pr.board.Len())
	}
}

// fenced reports whether the standby has refused r's primary terminally.
func fenced(r *Replicator) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fenced
}

// TestReplicatorRefusedDials: a mirror call to a standby that refuses every
// dial makes Retries+1 dials — the dial's own retries, none nested in the
// round trip's — and then fails.
func TestReplicatorRefusedDials(t *testing.T) {
	var dials atomic.Int32
	refuse := func(string, time.Duration) (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("connection refused")
	}
	retry := testRetry()
	r := NewReplicator("standby:1", 0, 2, transport.ClientOptions{Timeout: time.Second, Retry: retry, Dial: refuse})
	defer r.Close()
	recs := []*store.Record{{Kind: 1, Payload: []byte("x")}}
	if _, err := r.Mirror(ReplLogBoard)(0, recs); err == nil {
		t.Fatal("mirroring to a refusing standby succeeded")
	}
	if got, want := dials.Load(), int32(retry.Retries+1); got != want {
		t.Fatalf("one mirror call dialed %d times, want %d", got, want)
	}
}
