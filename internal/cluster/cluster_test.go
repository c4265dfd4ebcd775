package cluster

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

func testPub(t *testing.T) *vdp.Public {
	t.Helper()
	pub, err := vdp.Setup(vdp.Config{Group: group.P256(), Provers: 1, Bins: 2, Coins: 8})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// rootSeed is the cluster's deterministic root seed; every node reads the
// same 32 bytes and forks its own shard substream, exactly as a
// single-process ShardedSession forks its sub-sessions.
func rootSeed() []byte {
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i*13 + 7)
	}
	return seed
}

func testRetry() transport.RetryPolicy {
	return transport.RetryPolicy{Retries: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
}

// testNode is one in-process cluster node with a controllable lifecycle.
type testNode struct {
	addr  string
	srv   *transport.Server
	node  *Node
	board *store.FileLog
	seal  *store.FileLog
}

// startNode boots one shard node. dir == "" keeps the board in memory;
// otherwise board.log/merged.log under dir are opened (resuming when they
// hold records — a restart). addr == "" picks a fresh port.
func startNode(t *testing.T, ctx context.Context, pub *vdp.Public, shard, shards int, dir, addr string) *testNode {
	t.Helper()
	n := &testNode{}
	var boardLog, sealLog store.Log
	if dir == "" {
		boardLog, sealLog = store.NewMemLog(), store.NewMemLog()
	} else {
		var err error
		if n.board, err = store.OpenFileLog(filepath.Join(dir, "board.log")); err != nil {
			t.Fatal(err)
		}
		if n.seal, err = store.OpenFileLog(filepath.Join(dir, "merged.log")); err != nil {
			t.Fatal(err)
		}
		boardLog, sealLog = n.board, n.seal
	}
	opts := vdp.SessionOptions{Rand: bytes.NewReader(rootSeed()), Store: boardLog, Parallelism: 2}
	var sess *vdp.Session
	var err error
	if n.board != nil && n.board.Len() > 0 {
		sess, err = vdp.ResumeShardSession(ctx, pub, opts, shard, shards)
	} else {
		sess, err = vdp.NewShardSession(pub, opts, shard, shards)
	}
	if err != nil {
		t.Fatalf("opening shard %d session: %v", shard, err)
	}
	n.node, err = NewNode(ctx, pub, sess, NodeConfig{Shard: shard, Shards: shards, BoardLog: boardLog, SealLog: sealLog})
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	n.srv, err = transport.Listen(addr, replicaHandler(ctx, pub, n.node))
	if err != nil {
		t.Fatalf("listening for shard %d: %v", shard, err)
	}
	n.addr = n.srv.Addr()
	return n
}

// stop kills the node process: listener, connections and file handles.
func (n *testNode) stop() {
	n.srv.Close()
	if n.board != nil {
		n.board.Close()
	}
	if n.seal != nil {
		n.seal.Close()
	}
}

// replicaHandler is the frame dispatch cmd/vdpserver runs in node and standby
// mode — the cluster RPC first, then the shared admission dispatch — for a
// *Node or a *Standby (which refuses admissions until promoted).
func replicaHandler(ctx context.Context, pub *vdp.Public, r interface {
	server.Board
	Handle(*transport.Frame) []*transport.Frame
}) transport.Handler {
	return server.New(ctx, pub, server.Of(r), server.Options{Extra: Demux(r.Handle)}).Handle
}

func buildSubs(t *testing.T, pub *vdp.Public, first, n int) []*vdp.ClientSubmission {
	t.Helper()
	subs := make([]*vdp.ClientSubmission, n)
	for i := range subs {
		sub, err := pub.NewClientSubmission(first+i, (first+i)%2, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	return subs
}

// submitSingle pushes one submission through the router's client handler
// and returns the reply frame.
func submitSingle(t *testing.T, pub *vdp.Public, handler transport.Handler, sub *vdp.ClientSubmission) *transport.Frame {
	t.Helper()
	replies, err := handler(&transport.Frame{Kind: "submit", Sender: sub.Public.ID, Payload: pub.EncodeClientSubmission(sub)})
	if err != nil {
		t.Fatalf("submit handler errored (connection would drop): %v", err)
	}
	if len(replies) != 1 {
		t.Fatalf("submit produced %d replies, want 1", len(replies))
	}
	return replies[0]
}

// TestClusterDigestParity is the cluster's correctness pin: K networked
// nodes fed through the router produce a MergedTranscriptDigest
// byte-identical to a single-process ShardedSession with Shards=K on the
// same root seed and submissions, the finalize handshake is idempotent, and
// the cross-node audit over fetched evidence reproduces the sealed digest.
func TestClusterDigestParity(t *testing.T) {
	const k, n = 3, 12
	pub := testPub(t)
	ctx := context.Background()

	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		nd := startNode(t, ctx, pub, i, k, "", "")
		defer nd.stop()
		addrs[i] = nd.addr
	}
	router, err := New(Config{Pub: pub, Backends: addrs, Timeout: 10 * time.Second, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	disp := server.New(ctx, pub, router, server.Options{})
	handler := disp.Handle

	subs := buildSubs(t, pub, 0, n)
	half := n / 2

	// First half arrives as one batch frame: the router must partition it
	// by shard and reassemble the verdicts in original order.
	replies, err := handler(&transport.Frame{Kind: "submit-batch", Payload: pub.EncodeSubmissionBatch(subs[:half])})
	if err != nil {
		t.Fatalf("batch handler: %v", err)
	}
	verdicts, err := vdp.DecodeBatchVerdicts(replies[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != half {
		t.Fatalf("got %d verdicts for a batch of %d", len(verdicts), half)
	}
	for i, v := range verdicts {
		if v.ID != subs[i].Public.ID {
			t.Fatalf("verdict %d is for client %d, want %d (order not preserved)", i, v.ID, subs[i].Public.ID)
		}
		if !v.Accepted {
			t.Fatalf("client %d rejected: %s", v.ID, v.Reason)
		}
	}
	// Second half as single submissions, each routed as a batch of one.
	for _, sub := range subs[half:] {
		if reply := submitSingle(t, pub, handler, sub); reply.Kind != "ack" {
			t.Fatalf("client %d: got %q (%s), want ack", sub.Public.ID, reply.Kind, reply.Payload)
		}
	}
	if got := disp.Accepted(); got != n {
		t.Fatalf("router's dispatch counted %d accepted, want %d", got, n)
	}

	res, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatalf("finalize-merge: %v", err)
	}

	// The single-process reference on the same seed and arrival order.
	ref, err := vdp.NewShardedSession(pub, vdp.SessionOptions{
		Rand: bytes.NewReader(rootSeed()), Shards: k, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs, err := ref.SubmitBatch(ctx, subs[:half]); err != nil {
		t.Fatal(err)
	} else {
		for i, v := range vs {
			if v != nil {
				t.Fatalf("reference rejected client %d: %v", subs[i].Public.ID, v)
			}
		}
	}
	for _, sub := range subs[half:] {
		if err := ref.Submit(ctx, sub); err != nil {
			t.Fatalf("reference rejected client %d: %v", sub.Public.ID, err)
		}
	}
	refRes, err := ref.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Digest, refRes.Digest) {
		t.Fatalf("digest parity broken:\n cluster %x\n single  %x", res.Digest, refRes.Digest)
	}
	for j := range refRes.Release.Raw {
		if res.Release.Raw[j] != refRes.Release.Raw[j] {
			t.Fatalf("bin %d: cluster raw %d, single-process raw %d", j, res.Release.Raw[j], refRes.Release.Raw[j])
		}
	}

	// The handshake is idempotent: driving it again (a router retrying
	// after a partial failure) re-merges to the same digest.
	res2, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatalf("repeated finalize-merge: %v", err)
	}
	if !bytes.Equal(res.Digest, res2.Digest) {
		t.Fatalf("finalize-merge not idempotent: %x then %x", res.Digest, res2.Digest)
	}

	// Cross-node audit from fetched evidence: every node ships its board
	// log, so this is the log-grade audit, and it must land on the seal.
	report, err := router.AuditCluster(ctx, -1, 2)
	if err != nil {
		t.Fatalf("cross-node audit: %v", err)
	}
	if report.Source != "logs" {
		t.Fatalf("audit used %s-grade evidence, want logs", report.Source)
	}
	if !bytes.Equal(report.Digest, res.Digest) {
		t.Fatalf("audit digest %x does not match sealed %x", report.Digest, res.Digest)
	}
}

// unreadableLog is a board log whose reads can be made to fail after the
// fact — a disk lost under a running node.
type unreadableLog struct {
	store.Log
	broken atomic.Bool
}

func (l *unreadableLog) ReadFrom(index int) (store.Tailer, error) {
	if l.broken.Load() {
		return nil, errors.New("board log unreadable")
	}
	return l.Log.ReadFrom(index)
}

// TestAuditClusterFailsOnUnreadableLog pins the one evidence grade: a node
// without a board log is refused at NewNode, so the cross-node audit always
// reads every node's log, and when one node's log stops reading after the
// seal the audit fails rather than settling for the sealed transcripts.
func TestAuditClusterFailsOnUnreadableLog(t *testing.T) {
	const k, n = 2, 6
	pub := testPub(t)
	ctx := context.Background()

	board := &unreadableLog{Log: store.NewMemLog()}
	sess, err := vdp.NewShardSession(pub, vdp.SessionOptions{Rand: bytes.NewReader(rootSeed()), Store: board, Parallelism: 2}, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(ctx, pub, sess, NodeConfig{Shard: 0, Shards: k, SealLog: store.NewMemLog()}); err == nil || !strings.Contains(err.Error(), "needs a board log") {
		t.Fatalf("NewNode without a board log: %v, want a refusal", err)
	}
	node, err := NewNode(ctx, pub, sess, NodeConfig{Shard: 0, Shards: k, BoardLog: board, SealLog: store.NewMemLog()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.Listen("127.0.0.1:0", replicaHandler(ctx, pub, node))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	other := startNode(t, ctx, pub, 1, k, "", "")
	defer other.stop()

	router, err := New(Config{Pub: pub, Backends: []string{srv.Addr(), other.addr}, Timeout: 10 * time.Second, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	floodVia(t, pub, router.Handler(), buildSubs(t, pub, 0, n))
	res, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report, err := router.AuditCluster(ctx, -1, 2); err != nil || report.Source != "logs" || !bytes.Equal(report.Digest, res.Digest) {
		t.Fatalf("audit before the fault: %+v, %v", report, err)
	}

	board.broken.Store(true)
	report, err := router.AuditCluster(ctx, -1, 2)
	if err == nil {
		t.Fatalf("audit passed %s-grade with shard 0's board log unreadable", report.Source)
	}
	if !strings.Contains(err.Error(), "board log unreadable") {
		t.Fatalf("audit failed for the wrong reason: %v", err)
	}
}

// TestClusterFailurePaths exercises the degraded modes: a backend killed
// mid-epoch costs exactly its shard's clients an unavailable verdict (no
// dropped client connections, other shards keep admitting), the node
// restarts from its board log and rejoins, a replacement router picks the
// cluster up statelessly, and the final merge still reproduces the
// single-process digest over everything that was actually admitted.
func TestClusterFailurePaths(t *testing.T) {
	const k, n = 3, 18
	pub := testPub(t)
	ctx := context.Background()

	dirs := make([]string, k)
	addrs := make([]string, k)
	nodes := make([]*testNode, k)
	for i := 0; i < k; i++ {
		dirs[i] = t.TempDir()
		nodes[i] = startNode(t, ctx, pub, i, k, dirs[i], "")
		addrs[i] = nodes[i].addr
	}
	defer func() {
		for _, nd := range nodes {
			nd.stop()
		}
	}()

	router, err := New(Config{Pub: pub, Backends: addrs, Timeout: 5 * time.Second, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	handler := router.Handler()

	subs := buildSubs(t, pub, 0, n)
	var accepted []*vdp.ClientSubmission

	// Phase 1: healthy cluster, first third lands.
	for _, sub := range subs[:n/3] {
		if reply := submitSingle(t, pub, handler, sub); reply.Kind != "ack" {
			t.Fatalf("client %d: %q (%s)", sub.Public.ID, reply.Kind, reply.Payload)
		}
		accepted = append(accepted, sub)
	}

	// Phase 2: shard 1's node dies mid-epoch. Its clients must get
	// unavailable verdicts; everyone else keeps landing.
	const down = 1
	nodes[down].stop()
	for _, sub := range subs[n/3 : 2*n/3] {
		reply := submitSingle(t, pub, handler, sub)
		if vdp.ShardOf(sub.Public.ID, k) == down {
			if reply.Kind != "error" || !strings.Contains(string(reply.Payload), "unavailable") {
				t.Fatalf("client %d on the dead shard: got %q (%s), want unavailable error",
					sub.Public.ID, reply.Kind, reply.Payload)
			}
			continue
		}
		if reply.Kind != "ack" {
			t.Fatalf("client %d on a live shard: %q (%s)", sub.Public.ID, reply.Kind, reply.Payload)
		}
		accepted = append(accepted, sub)
	}
	if router.backends[down].Healthy() {
		t.Fatal("dead backend still marked healthy")
	}

	// Batch spanning all shards while one is down: per-member verdicts, in
	// order, with only the dead shard's members failed.
	probeSubs := buildSubs(t, pub, 1000, 3)
	replies, err := handler(&transport.Frame{Kind: "submit-batch", Payload: pub.EncodeSubmissionBatch(probeSubs)})
	if err != nil {
		t.Fatalf("batch during outage: %v", err)
	}
	vs, err := vdp.DecodeBatchVerdicts(replies[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		onDead := vdp.ShardOf(probeSubs[i].Public.ID, k) == down
		if onDead && (v.Accepted || !strings.Contains(v.Reason, "unavailable")) {
			t.Fatalf("batch member %d on dead shard: accepted=%v reason=%q", v.ID, v.Accepted, v.Reason)
		}
		if !onDead && !v.Accepted {
			t.Fatalf("batch member %d on live shard rejected: %s", v.ID, v.Reason)
		}
		if !onDead {
			accepted = append(accepted, probeSubs[i])
		}
	}

	// Phase 3: the node restarts on the same address and recovers its shard
	// from the board log — independently, with no router involvement.
	nodes[down] = startNode(t, ctx, pub, down, k, dirs[down], nodes[down].addr)
	sts, err := router.Statuses() // Call redials, pulling the backend back in
	if err != nil {
		t.Fatalf("statuses after node restart: %v", err)
	}
	wantOnDown := 0
	for _, sub := range accepted {
		if vdp.ShardOf(sub.Public.ID, k) == down {
			wantOnDown++
		}
	}
	if sts[down].Accepted != wantOnDown {
		t.Fatalf("restarted node recovered %d submissions, want %d", sts[down].Accepted, wantOnDown)
	}
	if !router.backends[down].Healthy() {
		t.Fatal("backend not revived after restart")
	}

	// Recovered state is live state: a duplicate of a pre-crash submission
	// must be rejected as a duplicate, not re-admitted.
	for _, sub := range accepted {
		if vdp.ShardOf(sub.Public.ID, k) == down {
			reply := submitSingle(t, pub, handler, sub)
			if reply.Kind != "error" || !strings.Contains(string(reply.Payload), "duplicate") {
				t.Fatalf("resubmitting recovered client %d: got %q (%s), want duplicate rejection",
					sub.Public.ID, reply.Kind, reply.Payload)
			}
			break
		}
	}

	// Final third lands on the healed cluster.
	for _, sub := range subs[2*n/3:] {
		if reply := submitSingle(t, pub, handler, sub); reply.Kind != "ack" {
			t.Fatalf("client %d after recovery: %q (%s)", sub.Public.ID, reply.Kind, reply.Payload)
		}
		accepted = append(accepted, sub)
	}

	// Phase 4: the router is replaced mid-epoch. The new one finds the
	// backends resumable — all state lives on the nodes — and finalizes.
	router.Close()
	router2, err := New(Config{Pub: pub, Backends: addrs, Timeout: 5 * time.Second, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router2.Close()
	if _, err := router2.CheckTopology(); err != nil {
		t.Fatalf("replacement router topology check: %v", err)
	}
	res, err := router2.FinalizeMerge(ctx)
	if err != nil {
		t.Fatalf("finalize after crashes: %v", err)
	}

	// The pinned digest: a single-process ShardedSession on the same seed,
	// fed exactly the submissions that were admitted, in arrival order.
	ref, err := vdp.NewShardedSession(pub, vdp.SessionOptions{
		Rand: bytes.NewReader(rootSeed()), Shards: k, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range accepted {
		if err := ref.Submit(ctx, sub); err != nil {
			t.Fatalf("reference rejected client %d: %v", sub.Public.ID, err)
		}
	}
	refRes, err := ref.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Digest, refRes.Digest) {
		t.Fatalf("digest after failures diverged:\n cluster %x\n single  %x", res.Digest, refRes.Digest)
	}

	// Cross-node audit over the recovered, once-crashed cluster.
	report, err := router2.AuditCluster(ctx, -1, 2)
	if err != nil {
		t.Fatalf("cross-node audit: %v", err)
	}
	if report.Source != "logs" || !bytes.Equal(report.Digest, res.Digest) {
		t.Fatalf("audit: source=%s digest=%x, want logs-grade digest %x", report.Source, report.Digest, res.Digest)
	}
}

// TestNodeRejectsMisroutedClient pins the ownership guard: a node never
// admits a client the shard map assigns elsewhere, even if a buggy router
// sends it.
func TestNodeRejectsMisroutedClient(t *testing.T) {
	const k = 3
	pub := testPub(t)
	ctx := context.Background()
	nd := startNode(t, ctx, pub, 0, k, "", "")
	defer nd.stop()

	// Find a client ID owned by a different shard.
	id := 0
	for vdp.ShardOf(id, k) == 0 {
		id++
	}
	sub, err := pub.NewClientSubmission(id, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.node.Submit(ctx, sub); err == nil || !strings.Contains(err.Error(), "belongs to shard") {
		t.Fatalf("misrouted submit: %v, want shard-ownership rejection", err)
	}
	verdicts, err := nd.node.SubmitBatch(ctx, []*vdp.ClientSubmission{sub})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0] == nil {
		t.Fatal("misrouted batch member admitted")
	}
}

// TestRPCCodecs round-trips every RPC payload shape and rejects version and
// framing violations.
func TestRPCCodecs(t *testing.T) {
	st := &NodeStatus{Shard: 2, Shards: 5, Epoch: 3, Submitted: 40, Accepted: 37,
		Finalized: true, MergedSealed: false, Standby: true, LogLen: 11}
	got, err := decodeStatus(encodeStatus(st))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *st {
		t.Fatalf("status roundtrip: %+v != %+v", got, st)
	}

	if _, err := decodeStatus(append(encodeStatus(st), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := encodeStatus(st)
	bad[0] = 99
	if _, err := decodeStatus(bad); err == nil {
		t.Fatal("wrong rpc version accepted")
	}

	if e, err := decodeIndexReq(encodeIndexReq(7)); err != nil || e != 7 {
		t.Fatalf("epoch req roundtrip: %d, %v", e, err)
	}

	digest := bytes.Repeat([]byte{0xAB}, 32)
	ep, sh, d, err := decodeMergedSeal(encodeMergedSeal(4, 3, digest))
	if err != nil || ep != 4 || sh != 3 || !bytes.Equal(d, digest) {
		t.Fatalf("merged-seal roundtrip: %d %d %x %v", ep, sh, d, err)
	}

	if e, err := decodeMergedGetReq(encodeMergedGetReq(-1)); err != nil || e != -1 {
		t.Fatalf("latest sentinel lost: %d %v", e, err)
	}
	if e, err := decodeMergedGetReq(encodeMergedGetReq(9)); err != nil || e != 9 {
		t.Fatalf("explicit epoch lost: %d %v", e, err)
	}

	if from, err := decodeIndexReq(encodeIndexReq(5)); err != nil || from != 5 {
		t.Fatalf("node-log request roundtrip: %d, %v", from, err)
	}
	recs := []*store.Record{
		{Kind: 1, Epoch: 0, Payload: []byte("alpha")},
		{Kind: 3, Epoch: 0, Payload: []byte("beta")},
	}
	payload, err := encodeLogRange(7, 5, recs)
	if err != nil {
		t.Fatal(err)
	}
	committed, from, got2, err := decodeLogRange(payload)
	if err != nil || committed != 7 || from != 5 {
		t.Fatalf("log range roundtrip: committed %d from %d, %v", committed, from, err)
	}
	if len(got2) != 2 || got2[0].Kind != 1 || string(got2[1].Payload) != "beta" {
		t.Fatalf("log range roundtrip mangled records: %+v", got2)
	}
	if _, _, _, err := decodeLogRange(payload[:len(payload)-3]); err == nil {
		t.Fatal("truncated log range accepted")
	}

	// A version-2 node-log frame — from the whole-log era — is refused by
	// name, at the node and at the reader alike.
	const v2 = "cluster: unsupported wire format version 2 (this build speaks 3)"
	req := encodeIndexReq(0)
	req[0] = 2
	if reply := shipLog(0, store.NewMemLog(), req); reply.Kind != KindError || string(reply.Payload) != v2 {
		t.Fatalf("version-2 node-log request: %s %q, want %s %q", reply.Kind, reply.Payload, KindError, v2)
	}
	payload[0] = 2
	if _, _, _, err := decodeLogRange(payload); err == nil || err.Error() != v2 {
		t.Fatalf("version-2 node-log reply: %v, want %q", err, v2)
	}
}
