package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// testBackends opens standalone backend handles in shard order — the
// follower's view of the cluster, independent of any router.
func testBackends(addrs []string) []*Backend {
	backends := make([]*Backend, len(addrs))
	for i, addr := range addrs {
		backends[i] = NewBackend(SplitList(addr, "~"), i, transport.ClientOptions{Timeout: 10 * time.Second, Retry: testRetry()})
	}
	return backends
}

// certifyNext polls the follower until the expected merged epoch certifies,
// then checks it against the sealed digest.
func certifyNext(t *testing.T, fol *TailFollower, wantEpoch int, wantDigest []byte) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := fol.Poll(); err != nil {
			t.Fatalf("polling for epoch %d: %v", wantEpoch, err)
		}
		epoch, digest, ready, err := fol.VerifyNext()
		if err != nil {
			t.Fatalf("verifying epoch %d: %v", wantEpoch, err)
		}
		if ready {
			if epoch != wantEpoch {
				t.Fatalf("certified epoch %d, want %d", epoch, wantEpoch)
			}
			if !bytes.Equal(digest, wantDigest) {
				t.Fatalf("live audit digest %x, sealed digest %x", digest, wantDigest)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d never certified", wantEpoch)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTailFollowerCertifiesMergedEpochs runs the cluster-wide live audit
// end to end: a follower attached to K nodes over the node-log RPC observes
// a flood mid-epoch without certifying anything, certifies merged epoch 0
// the moment the finalize-merge handshake lands (digest identical to the
// router's sealed result), then follows a reset into epoch 1 and certifies
// that one too.
func TestTailFollowerCertifiesMergedEpochs(t *testing.T) {
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
	handler := router.Handler()

	fol, err := NewTailFollower(pub, testBackends(addrs), vdp.TailOptions{})
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}

	flood := func(first int) {
		t.Helper()
		subs := buildSubs(t, pub, first, n)
		replies, err := handler(&transport.Frame{Kind: "submit-batch", Payload: pub.EncodeSubmissionBatch(subs)})
		if err != nil {
			t.Fatalf("batch handler: %v", err)
		}
		verdicts, err := vdp.DecodeBatchVerdicts(replies[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range verdicts {
			if !v.Accepted {
				t.Fatalf("client %d rejected: %s", v.ID, v.Reason)
			}
		}
	}

	// Mid-epoch: the follower sees the flood's records but certifies
	// nothing before the merge.
	flood(0)
	got, err := fol.Poll()
	if err != nil {
		t.Fatalf("mid-epoch poll: %v", err)
	}
	if got < n {
		t.Fatalf("mid-epoch poll consumed %d records, want at least %d submissions", got, n)
	}
	if _, _, ready, err := fol.VerifyNext(); err != nil {
		t.Fatalf("mid-epoch verify: %v", err)
	} else if ready {
		t.Fatal("follower certified an epoch before any shard sealed")
	}

	res, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatalf("finalize-merge: %v", err)
	}
	certifyNext(t, fol, 0, res.Digest)

	// Progress surfaces: every shard reports its status through the router,
	// and the follower has read each shard's whole board log.
	sts, err := router.Statuses()
	if err != nil {
		t.Fatal(err)
	}
	recs := fol.Records()
	if len(sts) != k || len(recs) != k {
		t.Fatalf("got %d statuses and %d record counts, want %d", len(sts), len(recs), k)
	}
	for i, st := range sts {
		if st.Shard != i || st.Shards != k {
			t.Fatalf("status %d reports shard %d/%d", i, st.Shard, st.Shards)
		}
		if recs[i] < 1 || recs[i] != st.LogLen {
			t.Fatalf("shard %d: follower read %d records, the node holds %d", i, recs[i], st.LogLen)
		}
	}

	// A second epoch: reset every node, flood fresh clients, merge, and the
	// follower advances and certifies epoch 1 as well.
	if err := resetAll(router, 0); err != nil {
		t.Fatalf("reset-all: %v", err)
	}
	flood(100)
	res1, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatalf("second finalize-merge: %v", err)
	}
	if res1.Epoch != 1 {
		t.Fatalf("second merge sealed epoch %d, want 1", res1.Epoch)
	}
	certifyNext(t, fol, 1, res1.Digest)

	// The router's backends stayed healthy throughout.
	for i, b := range router.backends {
		b.mu.Lock()
		err := b.lastErr
		b.mu.Unlock()
		if err != nil {
			t.Fatalf("backend %d recorded error: %v", i, err)
		}
	}
}

// TestTailFollowerRefusesBadTopology pins the probe-time checks: no
// backends at all, and backends wired up in the wrong shard order.
func TestTailFollowerRefusesBadTopology(t *testing.T) {
	pub := testPub(t)
	ctx := context.Background()

	if _, err := NewTailFollower(pub, nil, vdp.TailOptions{}); err == nil {
		t.Fatal("follower accepted an empty backend set")
	}

	const k = 2
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		nd := startNode(t, ctx, pub, i, k, "", "")
		defer nd.stop()
		addrs[i] = nd.addr
	}
	swapped := []string{addrs[1], addrs[0]}
	if _, err := NewTailFollower(pub, testBackends(swapped), vdp.TailOptions{}); err == nil {
		t.Fatal("follower accepted backends in the wrong shard order")
	} else if !strings.Contains(err.Error(), "serves shard") {
		t.Fatalf("wrong-order error %q does not name the topology mismatch", err)
	}
}

// logProxy serves a node's frames on a listener of its own, reshaping and
// counting the node-log replies on the way out — the node's wire side, as a
// reader sees it.
type logProxy struct {
	addr string

	mu      sync.Mutex
	reshape func(committed, from int, recs []*store.Record) (int, int, []*store.Record)
	calls   int // node-log replies sent
	bytes   int // their payload bytes
	records int // records they carried
}

// startLogProxy listens for node nd's frames behind a logProxy.
func startLogProxy(t *testing.T, ctx context.Context, pub *vdp.Public, nd *testNode) *logProxy {
	t.Helper()
	p := &logProxy{}
	inner := replicaHandler(ctx, pub, nd.node)
	srv, err := transport.Listen("127.0.0.1:0", func(f *transport.Frame) ([]*transport.Frame, error) {
		replies, err := inner(f)
		if err != nil || f.Kind != KindLog || replies[0].Kind != okKind(KindLog) {
			return replies, err
		}
		committed, from, recs, err := decodeLogRange(replies[0].Payload)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.reshape != nil {
			committed, from, recs = p.reshape(committed, from, recs)
		}
		payload, err := encodeLogRange(committed, from, recs)
		if err != nil {
			return nil, err
		}
		p.calls, p.bytes, p.records = p.calls+1, p.bytes+len(payload), p.records+len(recs)
		return []*transport.Frame{{Kind: okKind(KindLog), Payload: payload}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p.addr = srv.Addr()
	return p
}

// set swaps the reply reshaper and zeroes the counters.
func (p *logProxy) set(reshape func(committed, from int, recs []*store.Record) (int, int, []*store.Record)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reshape, p.calls, p.bytes, p.records = reshape, 0, 0, 0
}

func (p *logProxy) counts() (calls, bytes, records int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls, p.bytes, p.records
}

// oneRecord ships one record per reply, so every read spans many round trips.
func oneRecord(committed, from int, recs []*store.Record) (int, int, []*store.Record) {
	return committed, from, recs[:min(1, len(recs))]
}

// floodVia submits subs as one batch frame through a router handler and
// requires every verdict to be an acceptance.
func floodVia(t *testing.T, pub *vdp.Public, handler transport.Handler, subs []*vdp.ClientSubmission) {
	t.Helper()
	replies, err := handler(&transport.Frame{Kind: "submit-batch", Payload: pub.EncodeSubmissionBatch(subs)})
	if err != nil {
		t.Fatalf("batch handler: %v", err)
	}
	verdicts, err := vdp.DecodeBatchVerdicts(replies[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("client %d rejected: %s", v.ID, v.Reason)
		}
	}
}

// TestTailFollowerRangeRules pins what a follower accepts from a ranged
// node-log read. A connection dropped between two chunks of one read is
// retryable: the next Poll resumes from the cursor and certifies. A node
// committing fewer records than the follower has fed rewrote history, which
// is fatal. A reply with no records while the follower is behind, or with
// more records than the range holds, breaks the protocol: an error, but not
// an audit failure.
func TestTailFollowerRangeRules(t *testing.T) {
	pub := testPub(t)
	ctx := context.Background()
	nd := startNode(t, ctx, pub, 0, 1, "", "")
	defer nd.stop()
	proxy := startLogProxy(t, ctx, pub, nd)
	router, err := New(Config{Pub: pub, Backends: []string{proxy.addr}, Timeout: 10 * time.Second, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	floodVia(t, pub, router.Handler(), buildSubs(t, pub, 0, 4))
	res, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatal(err)
	}
	logLen := nd.node.Status().LogLen

	// follower opens a tail without backend retries, so a dropped connection
	// surfaces from Poll instead of being retried inside it.
	follower := func(t *testing.T, dial func(string, time.Duration) (net.Conn, error)) *TailFollower {
		t.Helper()
		b := NewBackend([]string{proxy.addr}, 0, transport.ClientOptions{Timeout: 10 * time.Second, Dial: dial})
		t.Cleanup(b.Close)
		fol, err := NewTailFollower(pub, []*Backend{b}, vdp.TailOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return fol
	}
	retryable := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil || errors.Is(err, vdp.ErrAuditFail) || !strings.Contains(err.Error(), want) {
			t.Fatalf("poll error %v, want a retryable error naming %q", err, want)
		}
	}

	t.Run("dropped mid-range", func(t *testing.T) {
		proxy.set(oneRecord)
		// Frame 0 is the status probe and frame 1 the first node-log read;
		// the connection is severed under the second.
		plan := &transport.FaultPlan{Kind: transport.ConnSever, Trip: 2}
		fol := follower(t, plan.Dialer())
		n, err := fol.Poll()
		retryable(t, err, "severed")
		if n != 1 || fol.Records()[0] != 1 {
			t.Fatalf("severed poll fed %d records, cursor %d; want 1 and 1", n, fol.Records()[0])
		}
		certifyNext(t, fol, 0, res.Digest)
		if got := fol.Records()[0]; got != logLen {
			t.Fatalf("follower read %d records, the node holds %d", got, logLen)
		}
	})

	t.Run("shrunk log", func(t *testing.T) {
		proxy.set(nil)
		fol := follower(t, nil)
		if _, err := fol.Poll(); err != nil {
			t.Fatal(err)
		}
		proxy.set(func(_, from int, _ []*store.Record) (int, int, []*store.Record) { return from - 1, from, nil })
		_, err := fol.Poll()
		if !errors.Is(err, vdp.ErrAuditFail) || !strings.Contains(err.Error(), "shrank") {
			t.Fatalf("poll over a shrunk log: %v, want an audit failure naming the shrink", err)
		}
	})

	t.Run("empty while behind", func(t *testing.T) {
		proxy.set(func(committed, from int, _ []*store.Record) (int, int, []*store.Record) { return committed, from, nil })
		fol := follower(t, nil)
		n, err := fol.Poll()
		retryable(t, err, "no records")
		if n != 0 {
			t.Fatalf("an empty reply fed %d records", n)
		}
	})

	t.Run("past the range", func(t *testing.T) {
		proxy.set(func(_, from int, recs []*store.Record) (int, int, []*store.Record) { return from + 1, from, recs[:2] })
		fol := follower(t, nil)
		n, err := fol.Poll()
		retryable(t, err, "holds 1")
		if n != 0 {
			t.Fatalf("an overfull reply fed %d records", n)
		}
	})
}

// TestNodeLogShipsOnlyNewRecords counts node-log reply bytes at the nodes:
// a poll after m new records receives their encodings plus a fixed
// per-reply header, and a poll with nothing new makes one round trip per
// shard and receives no records.
func TestNodeLogShipsOnlyNewRecords(t *testing.T) {
	const k = 2
	const header = 13 // version byte, committed count, first index, record count
	pub := testPub(t)
	ctx := context.Background()
	nodes := make([]*testNode, k)
	proxies := make([]*logProxy, k)
	addrs := make([]string, k)
	for i := range nodes {
		nodes[i] = startNode(t, ctx, pub, i, k, "", "")
		defer nodes[i].stop()
		proxies[i] = startLogProxy(t, ctx, pub, nodes[i])
		addrs[i] = proxies[i].addr
	}
	router, err := New(Config{Pub: pub, Backends: addrs, Timeout: 10 * time.Second, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	fol, err := NewTailFollower(pub, testBackends(addrs), vdp.TailOptions{})
	if err != nil {
		t.Fatal(err)
	}

	floodVia(t, pub, router.Handler(), buildSubs(t, pub, 0, 8))
	if _, err := fol.Poll(); err != nil {
		t.Fatal(err)
	}
	before := fol.Records()
	for _, p := range proxies {
		p.set(nil)
	}
	floodVia(t, pub, router.Handler(), buildSubs(t, pub, 8, 6))
	if _, err := fol.Poll(); err != nil {
		t.Fatal(err)
	}
	after := fol.Records()
	for i, p := range proxies {
		recs, err := nodes[i].node.boardLog.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, rec := range recs[before[i]:after[i]] {
			want += len(store.EncodeRecord(rec))
		}
		calls, got, records := p.counts()
		if after[i] == before[i] || records != after[i]-before[i] || calls != 1 || got > want+header {
			t.Fatalf("shard %d: %d new records came in %d replies of %d bytes carrying %d records; want one reply of at most %d bytes",
				i, after[i]-before[i], calls, got, records, want+header)
		}
		p.set(nil)
	}

	if n, err := fol.Poll(); err != nil || n != 0 {
		t.Fatalf("idle poll: %d records, %v", n, err)
	}
	for i, p := range proxies {
		if calls, got, records := p.counts(); calls != 1 || records != 0 || got != header {
			t.Fatalf("shard %d idle poll: %d replies, %d bytes, %d records; want one empty reply", i, calls, got, records)
		}
	}
}

// TestRemoteReadsPastFrameLimit fills one shard's board log past the
// transport's frame limit with valid submissions and requires both remote
// readers to read it whole: the follower certifies every merged epoch and
// the cross-node audit stays log-grade. 256-bin one-hot submissions encode
// to about 75 KB each, and the same clients join every epoch, so the board
// grows by some 3.6 MB per epoch at the cost of proving them once.
func TestRemoteReadsPastFrameLimit(t *testing.T) {
	const clients = 48
	pub, err := vdp.Setup(vdp.Config{Group: group.P256(), Provers: 1, Bins: 256, Coins: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	subs := make([]*vdp.ClientSubmission, clients)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < clients && errs[w] == nil; i += len(errs) {
				subs[i], errs[w] = pub.NewClientSubmission(i, i%256, nil)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	nd := startNode(t, ctx, pub, 0, 1, "", "")
	defer nd.stop()
	router, err := New(Config{Pub: pub, Backends: []string{nd.addr}, Timeout: 30 * time.Second, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	fol, err := NewTailFollower(pub, testBackends([]string{nd.addr}), vdp.TailOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var digests [][]byte
	for size := 0; size <= transport.MaxFrameSize; {
		if epoch := len(digests); epoch > 0 {
			if err := resetAll(router, epoch-1); err != nil {
				t.Fatal(err)
			}
		}
		floodVia(t, pub, router.Handler(), subs)
		res, err := router.FinalizeMerge(ctx)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.Digest)
		recs, err := nd.node.boardLog.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		size = 0
		for _, rec := range recs {
			size += len(store.EncodeRecord(rec))
		}
	}

	for epoch, digest := range digests {
		certifyNext(t, fol, epoch, digest)
	}
	report, err := router.AuditCluster(ctx, -1, 0)
	if err != nil {
		t.Fatalf("cross-node audit: %v", err)
	}
	if report.Source != "logs" || report.Epoch != len(digests)-1 || !bytes.Equal(report.Digest, digests[len(digests)-1]) {
		t.Fatalf("audit: %s-grade epoch %d digest %x, want log-grade epoch %d digest %x",
			report.Source, report.Epoch, report.Digest, len(digests)-1, digests[len(digests)-1])
	}
}

// TestNodeLogReadsOnlyShippedRecords: a node-log request reads only the
// records it ships. With a byte of record 0 flipped on a file-backed node's
// board, a request from n−64 still ships the last 64 records, while a
// request from 0 reports the checksum mismatch — so the reply for n−64 cannot
// have re-read the log from its first record.
func TestNodeLogReadsOnlyShippedRecords(t *testing.T) {
	const last = 64
	const rec0Body = 7 + 4 // the log's magic header, then record 0's length prefix
	pub := testPub(t)
	ctx := context.Background()
	dir := t.TempDir()
	nd := startNode(t, ctx, pub, 0, 1, dir, "")
	defer nd.stop()
	verdicts, err := nd.node.SubmitBatch(ctx, buildSubs(t, pub, 0, last))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if v != nil {
			t.Fatal(v)
		}
	}
	n := nd.board.Len()
	if n < 2*last {
		t.Fatalf("board holds %d records, want at least %d", n, 2*last)
	}
	tl, err := nd.board.ReadFrom(n - last)
	if err != nil {
		t.Fatal(err)
	}
	var want []*store.Record
	for len(want) < last {
		rec, _, err := tl.Next()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	tl.Close()

	f, err := os.OpenFile(filepath.Join(dir, "board.log"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, rec0Body+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	nodeLog := func(from int) *transport.Frame {
		return nd.node.Handle(&transport.Frame{Kind: KindLog, Payload: encodeIndexReq(from)})[0]
	}
	reply := nodeLog(n - last)
	if reply.Kind != okKind(KindLog) {
		t.Fatalf("node-log from %d: %s %s", n-last, reply.Kind, reply.Payload)
	}
	committed, from, recs, err := decodeLogRange(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if committed != n || from != n-last || len(recs) != last {
		t.Fatalf("node-log from %d shipped %d records from %d of %d, want %d from %d of %d",
			n-last, len(recs), from, committed, last, n-last, n)
	}
	for i, rec := range recs {
		if !bytes.Equal(store.EncodeRecord(rec), store.EncodeRecord(want[i])) {
			t.Fatalf("shipped record %d differs from the board's", n-last+i)
		}
	}
	if reply := nodeLog(0); reply.Kind != KindError || !strings.Contains(string(reply.Payload), "record checksum mismatch") {
		t.Fatalf("node-log from 0 over a corrupted record 0: %s %s", reply.Kind, reply.Payload)
	}
}

// resetAll opens the next epoch on every node after a completed merge.
func resetAll(r *Router, epoch int) error {
	return r.callAll(&transport.Frame{Kind: KindReset, Payload: encodeIndexReq(epoch)}, "resetting")
}
