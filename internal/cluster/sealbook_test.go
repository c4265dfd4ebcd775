package cluster

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// sealRecord builds a merged-seal record the way every holder writes one:
// through a merged-seal book of the record's width.
func sealRecord(t *testing.T, epoch, shards int, digest []byte) *store.Record {
	t.Helper()
	log := store.NewMemLog()
	book, err := vdp.OpenMergedSeals(log, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := book.Record(epoch, shards, digest); err != nil {
		t.Fatal(err)
	}
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return recs[0]
}

// memLogOf returns a memory log holding recs.
func memLogOf(t *testing.T, recs ...*store.Record) *store.MemLog {
	t.Helper()
	log := store.NewMemLog()
	for _, rec := range recs {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

// servesSeal asks a node or standby for epoch's merged seal and requires
// digest.
func servesSeal(t *testing.T, handle func(*transport.Frame) []*transport.Frame, epoch int, digest []byte) {
	t.Helper()
	reply := handle(&transport.Frame{Kind: KindMergedGet, Payload: encodeMergedGetReq(epoch)})[0]
	if err := replyErr(reply, KindMergedGet); err != nil {
		t.Fatalf("merged-get epoch %d: %v", epoch, err)
	}
	got, _, served, err := decodeMergedSeal(reply.Payload)
	if err != nil || got != epoch || !bytes.Equal(served, digest) {
		t.Fatalf("merged-get epoch %d served epoch %d digest %x (%v), want %x", epoch, got, served, err, digest)
	}
}

// TestMergedSealEvidence runs one row list of merged-seal evidence over
// every holder of merged seals — a segmented board's manifest (resume,
// offline audit, live tail), a node's sidecar (boot and the node-merged-seal
// RPC) and a standby's mirror of it (boot and a replicate frame). Each row is
// one record after epoch 0's honest seal. All holders read it by the one
// merged-seal rule: a record of another kind or width or a truncated one is
// refused, a second seal for epoch 0 with another digest is refused, and a
// repeat of the honest seal — what an honest retry leaves — is accepted,
// with the honest digest still served.
func TestMergedSealEvidence(t *testing.T) {
	const k = 2
	ctx := context.Background()
	pub := testPub(t)
	subs := buildSubs(t, pub, 0, 4)
	digest := chaosReference(t, ctx, pub, k, subs)
	seal := sealRecord(t, 0, k, digest)
	other := bytes.Repeat([]byte{0x5a}, len(digest))

	type row struct {
		name string
		rec  *store.Record // appended after epoch 0's honest seal
		req  []byte        // the same claim as a node-merged-seal request; nil: it has none
		ok   bool
	}
	rows := []row{
		{"unknown-kind", &store.Record{Kind: 9}, nil, false},
		{"other-width", sealRecord(t, 0, k+1, digest), encodeMergedSeal(0, k+1, digest), false},
		{"truncated-payload", &store.Record{Kind: seal.Kind, Payload: seal.Payload[:len(seal.Payload)-1]},
			encodeMergedSeal(0, k, digest[:len(digest)-1]), false},
		{"conflicting-digest", sealRecord(t, 0, k, other), encodeMergedSeal(0, k, other), false},
		{"same-digest-repeat", seal, encodeMergedSeal(0, k, digest), true},
	}

	// board builds epoch 0 of a durable sharded board and appends rec to its
	// manifest.
	board := func(t *testing.T, rec *store.Record) *store.SegmentedLog {
		seg, err := store.OpenSegmentedLog(t.TempDir(), k, store.WithNoSync())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { seg.Close() })
		ss, err := vdp.NewShardedSession(pub, vdp.SessionOptions{Rand: bytes.NewReader(rootSeed()), Shards: k, Segmented: seg, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if err := ss.Submit(ctx, sub); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := ss.Finalize(ctx); err != nil || !bytes.Equal(res.Digest, digest) {
			t.Fatalf("finalizing the board: %v", err)
		}
		if err := seg.Manifest().Append(rec); err != nil {
			t.Fatal(err)
		}
		return seg
	}
	// sealedNode boots a node whose epoch 0 is sealed locally, over sidecar.
	sealedNode := func(t *testing.T, sidecar store.Log) (*Node, error) {
		board := store.NewMemLog()
		sess, err := vdp.NewShardSession(pub, vdp.SessionOptions{Rand: bytes.NewReader(rootSeed()), Store: board, Parallelism: 2}, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if vdp.ShardOf(sub.Public.ID, k) == 0 {
				if err := sess.Submit(ctx, sub); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := sess.Finalize(ctx); err != nil {
			t.Fatal(err)
		}
		return NewNode(ctx, pub, sess, NodeConfig{Shard: 0, Shards: k, BoardLog: board, SealLog: sidecar})
	}
	standby := func(seal store.Log) (*Standby, error) {
		return NewStandby(ctx, pub, StandbyConfig{Shard: 0, Shards: k, Board: store.NewMemLog(), Seal: seal})
	}

	// Each holder reads one row: nil when it accepts the row (and then still
	// serves the honest seal), the refusal otherwise.
	holders := []struct {
		name string
		read func(t *testing.T, r row) error
	}{
		{"manifest/resume", func(t *testing.T, r row) error {
			_, err := vdp.ResumeShardedSession(ctx, pub, vdp.SessionOptions{Rand: bytes.NewReader(rootSeed()), Segmented: board(t, r.rec), Parallelism: 2})
			return err
		}},
		{"manifest/audit", func(t *testing.T, r row) error {
			return vdp.AuditSegmentedLog(ctx, pub, board(t, r.rec), 0, 2)
		}},
		{"manifest/tail", func(t *testing.T, r row) error {
			// The one live merged tail over the segmented board: every
			// segment drained into its shard's auditor, the manifest read
			// into the merged-seal book by the directory's seal lookup.
			seg := board(t, r.rec)
			st, err := vdp.NewSegmentedTail(pub, []vdp.TailSource{seg.Segment(0), seg.Segment(1)}, vdp.ManifestSeals(seg), vdp.TailOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Poll(); err != nil {
				t.Fatal(err)
			}
			got, ready, err := st.VerifyMerged(0)
			if err != nil {
				return err
			}
			if !ready || !bytes.Equal(got, digest) {
				t.Fatalf("tail verifies epoch 0 as %x (ready %v)", got, ready)
			}
			return nil
		}},
		{"node/boot", func(t *testing.T, r row) error {
			n, err := sealedNode(t, memLogOf(t, seal, r.rec))
			if err == nil {
				servesSeal(t, n.Handle, 0, digest)
			}
			return err
		}},
		{"node/merged-seal-rpc", func(t *testing.T, r row) error {
			sidecar := memLogOf(t, seal)
			n, err := sealedNode(t, sidecar)
			if err != nil {
				t.Fatal(err)
			}
			reply := n.Handle(&transport.Frame{Kind: KindMergedSeal, Payload: r.req})[0]
			servesSeal(t, n.Handle, 0, digest)
			if sidecar.Len() != 1 {
				t.Fatalf("the sidecar holds %d records, want the honest seal alone", sidecar.Len())
			}
			return replyErr(reply, KindMergedSeal)
		}},
		{"standby/boot", func(t *testing.T, r row) error {
			sb, err := standby(memLogOf(t, seal, r.rec))
			if err == nil {
				servesSeal(t, sb.Handle, 0, digest)
			}
			return err
		}},
		{"standby/replicate", func(t *testing.T, r row) error {
			mirror := memLogOf(t, seal)
			sb, err := standby(mirror)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := encodeReplicate(0, k, ReplLogSeal, 1, []*store.Record{r.rec})
			if err != nil {
				t.Fatal(err)
			}
			reply := sb.Handle(&transport.Frame{Kind: KindReplicate, Payload: payload})[0]
			servesSeal(t, sb.Handle, 0, digest)
			err = replyErr(reply, KindReplicate)
			if want := map[bool]int{true: 1, false: 2}[err != nil]; mirror.Len() != want {
				t.Fatalf("the mirror holds %d records after the frame (%v), want %d", mirror.Len(), err, want)
			}
			if _, rerr := standby(mirror); rerr != nil {
				t.Fatalf("the standby no longer reopens over its mirror: %v", rerr)
			}
			return err
		}},
	}

	for _, r := range rows {
		for _, h := range holders {
			if h.name == "node/merged-seal-rpc" && r.req == nil {
				continue // a record kind has no node-merged-seal form
			}
			t.Run(r.name+"/"+h.name, func(t *testing.T) {
				err := h.read(t, r)
				switch {
				case r.ok && err != nil:
					t.Fatalf("refused: %v", err)
				case !r.ok && err == nil:
					t.Fatal("accepted")
				case err != nil && h.name == "manifest/audit" && !strings.HasPrefix(err.Error(), "vdp: manifest record"):
					t.Fatalf("refused without naming the manifest record: %v", err)
				case err != nil && h.name == "manifest/tail" && (!errors.Is(err, vdp.ErrAuditFail) || !strings.Contains(err.Error(), "manifest record")):
					t.Fatalf("refused as something other than an audit failure naming the manifest record: %v", err)
				case err != nil && h.name == "manifest/resume" && !strings.Contains(err.Error(), "manifest record"):
					t.Fatalf("refused without naming the manifest record: %v", err)
				}
			})
		}
	}
}

// TestMergedSealMirrorBlip runs the honest schedule that leaves a sidecar
// holding one seal twice: the standby's mirror fails on the
// node-merged-seal append after the primary's local append landed, so the
// first finalize-merge fails and its retry appends the seal again. Every
// holder must accept the repeat: the restarted primary serves the seal, the
// promoted standby serves it, and the cross-node audit and a live tail
// certify the epoch at the single-process digest.
func TestMergedSealMirrorBlip(t *testing.T) {
	const k, n = 2, 6
	ctx := context.Background()
	pub := testPub(t)
	subs := buildSubs(t, pub, 0, n)
	want := chaosReference(t, ctx, pub, k, subs)

	sb := startStandby(t, ctx, pub, 0, k)
	defer sb.stop()
	repl := NewReplicator(sb.addr, 0, k, transport.ClientOptions{Retry: testRetry()})
	defer repl.Close()

	// Shard 0's primary keeps board.log and merged.log in dir, both mirrored
	// to the standby; the first merged-seal mirror call blips.
	dir := t.TempDir()
	boardFile, err := store.OpenFileLog(filepath.Join(dir, "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	sealFile, err := store.OpenFileLog(filepath.Join(dir, "merged.log"))
	if err != nil {
		t.Fatal(err)
	}
	board, _ := store.NewReplicatedLog(boardFile, repl.Mirror(ReplLogBoard))
	blipped := false
	sealLog, _ := store.NewReplicatedLog(sealFile, func(start int, recs []*store.Record) (int, error) {
		if !blipped {
			blipped = true
			return 0, errors.New("mirror blip")
		}
		return repl.Mirror(ReplLogSeal)(start, recs)
	})
	sess, err := vdp.NewShardSession(pub, vdp.SessionOptions{Rand: bytes.NewReader(rootSeed()), Store: board, Parallelism: 2}, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := NewNode(ctx, pub, sess, NodeConfig{Shard: 0, Shards: k, BoardLog: board, SealLog: sealLog})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.Listen("127.0.0.1:0", replicaHandler(ctx, pub, primary))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	peer := startNode(t, ctx, pub, 1, k, "", "")
	defer peer.stop()

	router, err := New(Config{Pub: pub, Backends: []string{addr, peer.addr}, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	floodVia(t, pub, router.Handler(), subs)
	if _, err := router.FinalizeMerge(ctx); err == nil || !strings.Contains(err.Error(), "mirror blip") {
		t.Fatalf("finalize-merge over the blipped mirror: %v", err)
	}
	res := retryFinalizeMerge(t, ctx, router)
	if !bytes.Equal(res.Digest, want) {
		t.Fatalf("merged digest %x, single-process %x", res.Digest, want)
	}
	if sealFile.Len() != 2 || sb.seal.Len() != 2 {
		t.Fatalf("the sidecar holds %d seal records and its mirror %d, want the seal twice in each", sealFile.Len(), sb.seal.Len())
	}

	// The primary restarts over its own files, on the same address.
	srv.Close()
	boardFile.Close()
	sealFile.Close()
	restarted := startNode(t, ctx, pub, 0, k, dir, addr)
	defer restarted.stop()
	servesSeal(t, restarted.node.Handle, 0, want)

	report, err := router.AuditCluster(ctx, -1, 2)
	if err != nil || report.Epoch != 0 || !bytes.Equal(report.Digest, want) {
		t.Fatalf("cross-node audit: %+v, %v", report, err)
	}
	fol, err := NewTailFollower(pub, testBackends([]string{addr, peer.addr}), vdp.TailOptions{})
	if err != nil {
		t.Fatal(err)
	}
	certifyNext(t, fol, 0, want)

	reply := sb.sb.Handle(&transport.Frame{Kind: KindPromote, Payload: encodePromoteReq(0, 0)})[0]
	if err := replyErr(reply, KindPromote); err != nil {
		t.Fatalf("promoting the standby: %v", err)
	}
	servesSeal(t, sb.sb.Handle, 0, want)
}

// TestAuditClusterLatestIsFullyReplicated: the latest merged epoch is the
// newest one every node holds a seal for. A router that dies mid-broadcast
// leaves epoch 1 sealed on both shards but merged-sealed on node 0 alone;
// the latest audit certifies epoch 0 rather than reporting a fork, and
// epoch 1 is not auditable yet. Two nodes holding different digests for one
// epoch are still a disagreement.
func TestAuditClusterLatestIsFullyReplicated(t *testing.T) {
	const k = 2
	ctx := context.Background()
	pub := testPub(t)
	nodes := make([]*testNode, k)
	addrs := make([]string, k)
	for i := range nodes {
		nodes[i] = startNode(t, ctx, pub, i, k, "", "")
		defer nodes[i].stop()
		addrs[i] = nodes[i].addr
	}
	router, err := New(Config{Pub: pub, Backends: addrs, Retry: testRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	floodVia(t, pub, router.Handler(), buildSubs(t, pub, 0, 4))
	res0, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := resetAll(router, 0); err != nil {
		t.Fatal(err)
	}

	// Epoch 1: both shards seal; the merged seal reaches node 0 only.
	floodVia(t, pub, router.Handler(), buildSubs(t, pub, 4, 4))
	ts := make([]*vdp.Transcript, k)
	for i, nd := range nodes {
		reply := nd.node.Handle(&transport.Frame{Kind: KindSeal, Payload: encodeIndexReq(1)})[0]
		if err := replyErr(reply, KindSeal); err != nil {
			t.Fatal(err)
		}
		_, raw, err := decodeTranscriptReply(reply.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if ts[i], err = pub.DecodeTranscript(raw); err != nil {
			t.Fatal(err)
		}
	}
	mergeSeal := func(nd *testNode, digest []byte) {
		t.Helper()
		reply := nd.node.Handle(&transport.Frame{Kind: KindMergedSeal, Payload: encodeMergedSeal(1, k, digest)})[0]
		if err := replyErr(reply, KindMergedSeal); err != nil {
			t.Fatal(err)
		}
	}
	mergeSeal(nodes[0], vdp.MergedTranscriptDigest(pub, ts))

	for _, epoch := range []int{-1, 0} {
		report, err := router.AuditCluster(ctx, epoch, 2)
		if err != nil || report.Epoch != 0 || !bytes.Equal(report.Digest, res0.Digest) {
			t.Fatalf("AuditCluster(%d) over a partly replicated epoch 1: %+v, %v", epoch, report, err)
		}
	}
	if _, err := router.AuditCluster(ctx, 1, 2); !errors.Is(err, errNoMergedSeal) {
		t.Fatalf("AuditCluster(1) with node 1 holding no merged seal: %v", err)
	}

	// A different digest on node 1 is a forked merge.
	mergeSeal(nodes[1], bytes.Repeat([]byte{0x5a}, 32))
	if _, err := router.AuditCluster(ctx, -1, 2); !errors.Is(err, vdp.ErrAuditFail) || !strings.Contains(err.Error(), "disagreement") {
		t.Fatalf("AuditCluster(-1) over two digests for epoch 1: %v", err)
	}
}
