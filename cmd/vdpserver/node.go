package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// mergedLogName is the merged-seal sidecar a cluster node keeps next to its
// board log: the router replicates each epoch's merged seal here, so any
// single surviving node can attest the cluster-level seal.
const mergedLogName = "merged.log"

// mirrorOptions are the primary→standby replication client settings: short
// legs with a couple of retries, so a bounced standby costs a redial, not a
// wedged admission path.
func mirrorOptions(grace time.Duration) transport.ClientOptions {
	return transport.ClientOptions{
		Timeout: 10 * time.Second,
		Retry:   transport.RetryPolicy{Retries: 3, Backoff: 50 * time.Millisecond, MaxBackoff: grace},
	}
}

// openNodeLogs opens (or creates) a cluster replica's two durable logs —
// board and merged-seal sidecar — under storeDir, falling back to in-memory
// logs when storeDir is empty. The layout is identical for primaries and
// standbys, so a promoted standby's directory is a valid node directory.
func openNodeLogs(storeDir string) (board, seal store.Log, closeAll func()) {
	if storeDir == "" {
		return store.NewMemLog(), store.NewMemLog(), func() {}
	}
	boardLog, err := openFileLog(storeDir, boardLogName)
	if err != nil {
		log.Fatal(err)
	}
	sealLog, err := openFileLog(storeDir, mergedLogName)
	if err != nil {
		log.Fatal(err)
	}
	return boardLog, sealLog, func() {
		boardLog.Close()
		sealLog.Close()
	}
}

// runNode serves one shard of a multi-node cluster: a single-shard session
// seeded with shard shardIndex's substream of the cluster's deterministic
// seed derivation (so K nodes merge to the same digest as one ShardedSession
// with Shards=K), plus the cluster RPC for the router's finalize-merge
// handshake. Unlike standalone mode the node never finalizes on its own —
// sealing, merging and epoch turnover are driven by the router — so the
// dispatch has no target, and shutdown leaves an open epoch on disk exactly
// where ResumeShardSession can pick it up.
//
// With standbyAddr set the node is a replica-set primary: both logs are
// wrapped in store.ReplicatedLog, whose mirror hook ships every record to
// the standby before the covering verdict is acknowledged. A submission that
// cannot be mirrored is not acknowledged — synchronous replication is the
// point — so with the standby down, admissions fail until it returns or the
// router promotes it.
func runNode(ctx context.Context, pub *vdp.Public, addr, storeDir string, budget *vdp.BudgetConfig, shardIndex, shardCount int, standbyAddr string, grace time.Duration) {
	blog, slog, closeLogs := openNodeLogs(storeDir)
	defer closeLogs()
	// Counted before mirroring wraps the board: a replicated log's Len is
	// only what the standby has confirmed, and records held locally must
	// be resumed, not written over.
	empty := blog.Len() == 0

	mirror := "none"
	if standbyAddr != "" {
		mirror = standbyAddr
		repl := cluster.NewReplicator(standbyAddr, shardIndex, shardCount, mirrorOptions(grace))
		defer repl.Close()
		// NewReplicatedLog cannot fail: its error is always nil.
		rblog, _ := store.NewReplicatedLog(blog, repl.Mirror(cluster.ReplLogBoard))
		rslog, _ := store.NewReplicatedLog(slog, repl.Mirror(cluster.ReplLogSeal))
		blog, slog = rblog, rslog
		// Best-effort catch-up of pre-existing records; a standby that is not
		// up yet just means the first acknowledged admission pays for it.
		for _, l := range []*store.ReplicatedLog{rblog, rslog} {
			if err := l.Flush(); err != nil {
				log.Printf("standby %s not caught up yet: %v", standbyAddr, err)
				break
			}
		}
	}

	// Every node keeps a board log — in memory without -store-dir — and
	// serves it over node-log to the cross-node audit and the live tail.
	opts := vdp.SessionOptions{Budget: budget, Store: blog}
	cfg := cluster.NodeConfig{Shard: shardIndex, Shards: shardCount, BoardLog: blog, SealLog: slog}
	var (
		sess *vdp.Session
		err  error
	)
	if empty {
		sess, err = vdp.NewShardSession(pub, opts, shardIndex, shardCount)
	} else if sess, err = vdp.ResumeShardSession(ctx, pub, opts, shardIndex, shardCount); err == nil {
		// Standalone recovery turns a sealed epoch over to open the next one;
		// a cluster node must not — the merged seal may still be in flight,
		// and the router's roll-forward (or an explicit node-reset) is the
		// only sanctioned turnover.
		if sess.Finalized() {
			log.Printf("recovered board log: epoch %d sealed locally; awaiting the router's merge/reset", sess.Epoch())
		} else {
			log.Printf("recovered board log: resuming epoch %d with %d accepted", sess.Epoch(), sess.Accepted())
		}
	}
	if err != nil {
		log.Fatalf("opening board log: %v", err)
	}
	node, err := cluster.NewNode(ctx, pub, sess, cfg)
	if err != nil {
		log.Fatal(err)
	}

	d := server.New(ctx, pub, server.Of(node), server.Options{
		Accepted: node.Accepted(), Extra: cluster.Demux(node.Handle),
		Logf: log.Printf, Label: fmt.Sprintf("shard %d: ", shardIndex),
	})
	serve(ctx, addr, d, grace, "verifiable-dp cluster node", fmt.Sprintf("shard %d of %d, M=%d, nb=%d, store=%s, standby=%s",
		shardIndex, shardCount, pub.Bins(), pub.Coins(), storeDesc(storeDir), mirror))()
	switch {
	case sess.Finalized():
		log.Printf("shard %d exiting with epoch %d sealed", shardIndex, sess.Epoch())
	case storeDir != "":
		log.Printf("shard %d exiting mid-epoch; epoch %d is resumable from %s", shardIndex, sess.Epoch(), storeDir)
	default:
		log.Printf("shard %d exiting mid-epoch; in-memory board discarded", shardIndex)
	}
}

// runStandby serves one shard's warm replica: it applies the primary's
// replicate-append stream to its own logs (same on-disk layout as a node, so
// the directory stays audit-able and restart-able) and serves the read-side
// RPCs so followers can keep tailing through a failover. It takes no
// admissions until the router promotes it — at which point it fences the old
// primary, resumes the shard session from the mirror, and serves the full
// node protocol, submissions included: the Standby is itself the dispatch's
// board, resolving its promoted node per frame. primaryAddr is not dialed;
// the primary connects to us, the flag documents the pairing in logs and ps
// output.
func runStandby(ctx context.Context, pub *vdp.Public, addr, storeDir string, budget *vdp.BudgetConfig, shardIndex, shardCount int, primaryAddr string, grace time.Duration) {
	board, seal, closeLogs := openNodeLogs(storeDir)
	defer closeLogs()

	sb, err := cluster.NewStandby(ctx, pub, cluster.StandbyConfig{
		Shard: shardIndex, Shards: shardCount, Board: board, Seal: seal,
		SessionOpts: vdp.SessionOptions{Budget: budget},
	})
	if err != nil {
		log.Fatal(err)
	}
	rpc := func(f *transport.Frame) []*transport.Frame {
		wasPromoted := sb.Promoted()
		reply := sb.Handle(f)
		if !wasPromoted && sb.Promoted() {
			log.Printf("shard %d standby PROMOTED: now serving as the shard's node (%d mirrored records)",
				shardIndex, sb.MirroredRecords())
		}
		return reply
	}

	d := server.New(ctx, pub, server.Of(sb), server.Options{
		Extra: cluster.Demux(rpc),
		Logf:  log.Printf, Label: fmt.Sprintf("shard %d (promoted standby): ", shardIndex),
	})
	serve(ctx, addr, d, grace, "verifiable-dp standby", fmt.Sprintf("shard %d of %d, mirror of %s, store=%s",
		shardIndex, shardCount, primaryAddr, storeDesc(storeDir)))()
	if sb.Promoted() {
		log.Printf("shard %d exiting as the promoted node; store %s is resumable as a node directory", shardIndex, storeDesc(storeDir))
	} else {
		log.Printf("shard %d standby exiting with %d mirrored records", shardIndex, sb.MirroredRecords())
	}
}
