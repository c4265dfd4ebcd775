package cluster

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// The merged.log sidecar is the one durable record a node keeps of which
// merged digest its shard participated in — losing it silently would let a
// restarted node re-seal under a forked digest. This matrix crashes the
// sidecar append itself, in every way a disk can betray it, and requires the
// cluster to converge on one seal anyway.

// startFaultSealNode boots a durable node whose merged-seal sidecar is
// fronted by a FaultLog: the very first seal append (trip 0 — the sidecar
// sees exactly one append per epoch) fails with the given kind, and the
// board underneath stays honest.
func startFaultSealNode(t *testing.T, ctx context.Context, pub *vdp.Public, shard, shards int, dir string, kind store.FaultKind) *testNode {
	t.Helper()
	n := &testNode{}
	var err error
	if n.board, err = store.OpenFileLog(filepath.Join(dir, "board.log")); err != nil {
		t.Fatal(err)
	}
	if n.seal, err = store.OpenFileLog(filepath.Join(dir, "merged.log")); err != nil {
		t.Fatal(err)
	}
	opts := vdp.SessionOptions{Rand: bytes.NewReader(rootSeed()), Store: n.board, Parallelism: 2}
	sess, err := vdp.NewShardSession(pub, opts, shard, shards)
	if err != nil {
		t.Fatalf("opening shard %d session: %v", shard, err)
	}
	n.node, err = NewNode(ctx, pub, sess, NodeConfig{
		Shard: shard, Shards: shards, BoardLog: n.board,
		SealLog: store.NewFaultLog(n.seal, kind, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.srv, err = transport.Listen("127.0.0.1:0", replicaHandler(ctx, pub, n.node))
	if err != nil {
		t.Fatalf("listening for shard %d: %v", shard, err)
	}
	n.addr = n.srv.Addr()
	return n
}

// TestMergedSealSidecarFaultMatrix drives a two-node epoch where one node's
// merged.log append crashes during finalize-merge. The first merge must
// surface the failure (the seal is not acknowledged on evidence that may not
// be durable); after an honest restart of the victim over its own files, the
// retried merge — idempotent end to end — lands one seal, byte-identical to
// the fault-free single-process digest, and the cross-node audit accepts it
// even after the victim restarts a second time.
func TestMergedSealSidecarFaultMatrix(t *testing.T) {
	const k, n = 2, 6
	pub := testPub(t)
	ctx := context.Background()
	subs := buildSubs(t, pub, 0, n)
	want := chaosReference(t, ctx, pub, k, subs)

	for _, kind := range []store.FaultKind{store.FaultFail, store.FaultShortWrite, store.FaultTornAppend} {
		t.Run(kind.String(), func(t *testing.T) {
			dirs := make([]string, k)
			nodes := make([]*testNode, k)
			specs := make([]string, k)
			for i := 0; i < k; i++ {
				dirs[i] = t.TempDir()
				if i == 0 {
					nodes[i] = startFaultSealNode(t, ctx, pub, i, k, dirs[i], kind)
				} else {
					nodes[i] = startNode(t, ctx, pub, i, k, dirs[i], "")
				}
				defer func(i int) { nodes[i].stop() }(i)
				specs[i] = nodes[i].addr
			}
			router, err := New(Config{Pub: pub, Backends: specs, Timeout: 2 * time.Second, Retry: testRetry()})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			handler := router.Handler()

			for _, sub := range subs {
				if reply := submitSingle(t, pub, handler, sub); reply.Kind != "ack" {
					t.Fatalf("client %d: %q (%s)", sub.Public.ID, reply.Kind, reply.Payload)
				}
			}

			if _, err := router.FinalizeMerge(ctx); err == nil {
				t.Fatal("finalize-merge succeeded although the victim could not persist the merged seal")
			} else if !strings.Contains(err.Error(), "merged seal") {
				t.Fatalf("finalize-merge failed for the wrong reason: %v", err)
			}

			// The victim process dies at the fault and is restarted the honest
			// way, on the same address, over its own board.log and merged.log.
			victimAddr := nodes[0].addr
			nodes[0].stop()
			nodes[0] = startNode(t, ctx, pub, 0, k, dirs[0], victimAddr)

			res := retryFinalizeMerge(t, ctx, router)
			if !bytes.Equal(res.Digest, want) {
				t.Fatalf("digest after the sidecar crash diverged:\n cluster %x\n single  %x", res.Digest, want)
			}

			// A second restart proves the seal really reached the sidecar:
			// the node must replay it and still answer the audit.
			nodes[0].stop()
			nodes[0] = startNode(t, ctx, pub, 0, k, dirs[0], victimAddr)
			report, err := router.AuditCluster(ctx, -1, 2)
			if err != nil {
				t.Fatalf("cross-node audit after recovery: %v", err)
			}
			if !bytes.Equal(report.Digest, res.Digest) {
				t.Fatalf("audit digest %x does not match sealed %x", report.Digest, res.Digest)
			}
		})
	}
}

// retryFinalizeMerge retries the idempotent finalize-merge handshake a few
// times — the router's cached conn to a restarted node dies on first use.
func retryFinalizeMerge(t *testing.T, ctx context.Context, router *Router) *MergeResult {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		res, err := router.FinalizeMerge(ctx)
		if err == nil {
			return res
		}
		lastErr = err
	}
	t.Fatalf("finalize-merge never recovered: %v", lastErr)
	return nil
}
