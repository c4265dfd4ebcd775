// Command vdprouter is the stateless front door of a multi-node
// verifiable-DP cluster: K vdpserver processes each serve one shard
// (-shard-index i -shard-count K), and the router speaks the ordinary
// client wire protocol on the outside while routing every submission to
// the shard that owns it (vdp.ShardOf over the client ID, peeked at a
// fixed offset — the router never decodes a proof). A "submit-batch"
// frame is partitioned into per-shard sub-batches forwarded concurrently,
// and the verdicts come back reassembled in the caller's original order.
// The router is one more server.Admitter behind the server.Dispatch every
// vdpserver mode serves through, so its clients get the same replies — a
// rejected "submit" an "error" frame with the connection kept — and it logs
// one line per frame, as a node does.
//
// Once -clients submissions are accepted (or on SIGINT/SIGTERM) the router
// drives the finalize-merge handshake: every node seals its local epoch
// and returns its sealed transcript, the router merges them in shard
// order — reproducing byte-for-byte the MergedTranscriptDigest a
// single-process `vdpserver -shards K` would seal on the same seed and
// submissions — and replicates the merged seal to every node before
// printing the verified release. The router keeps no durable state:
// everything needed to resume or audit lives on the nodes, so a router
// killed mid-epoch is replaced by just starting a new one against the same
// backends.
//
// Failure policy: a node that stops answering costs its shard's clients an
// "unavailable" verdict (their connections stay up and other shards keep
// admitting); a background probe pulls the node back into rotation when it
// returns, and a node restarted from its -store-dir recovers its shard
// independently via the recorded board log. A -backends entry may also name
// a replica pair "primary~standby" (the primary runs with -standby, the
// standby with -replica-of): the primary mirrors every log record to the
// standby before acking, and when the primary dies the router promotes the
// standby through a fenced handshake — the shard keeps admitting with no
// operator action, and the stale primary can never acknowledge again.
//
// With -audit the router instead plays the cross-node auditor: it fetches
// the merged seal from every node (all must agree), reads each node's
// board log — every node keeps one, in memory without -store-dir —
// re-verifies every shard and the shard map, and checks the recomputed
// merged digest against the recorded seal.
//
// Example (four shells):
//
//	vdpserver -addr 127.0.0.1:7101 -shard-index 0 -shard-count 3 -store-dir /var/lib/vdp/n0 -bins 2 -coins 32
//	vdpserver -addr 127.0.0.1:7102 -shard-index 1 -shard-count 3 -store-dir /var/lib/vdp/n1 -bins 2 -coins 32
//	vdpserver -addr 127.0.0.1:7103 -shard-index 2 -shard-count 3 -store-dir /var/lib/vdp/n2 -bins 2 -coins 32
//	vdprouter -addr 127.0.0.1:7001 -backends 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 -clients 64 -bins 2 -coins 32
//	vdprouter -backends 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 -bins 2 -coins 32 -audit
//
// Replicated (shard 0 gets a standby on :7111):
//
//	vdpserver -addr 127.0.0.1:7111 -shard-index 0 -shard-count 3 -replica-of 127.0.0.1:7101 -store-dir /var/lib/vdp/s0 -bins 2 -coins 32
//	vdpserver -addr 127.0.0.1:7101 -shard-index 0 -shard-count 3 -standby 127.0.0.1:7111 -store-dir /var/lib/vdp/n0 -bins 2 -coins 32
//	vdprouter -addr 127.0.0.1:7001 -backends 127.0.0.1:7101~127.0.0.1:7111,127.0.0.1:7102,127.0.0.1:7103 -clients 64 -bins 2 -coins 32
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/vdp"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7001", "client-facing listen address")
		backends = flag.String("backends", "", "comma-separated shard replica sets in shard order: each entry is a node address or a primary~standby pair")
		clients  = flag.Int("clients", 3, "accepted submissions across all shards before finalizing")
		bins     = flag.Int("bins", 1, "histogram bins (must match the nodes)")
		coins    = flag.Int("coins", 64, "noise coins nb (must match the nodes)")
		eps      = flag.Float64("eps", 1.0, "epsilon (used when -coins 0)")
		delta    = flag.Float64("delta", 1e-6, "delta (used when -coins 0)")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown grace period for draining and finalizing")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-leg backend round-trip deadline")
		retries  = flag.Int("retries", 5, "redial/retry attempts for backend dials and idempotent RPCs")
		backoff  = flag.Duration("backoff", 100*time.Millisecond, "initial reconnect backoff (doubles, capped at 2s)")
		probe    = flag.Duration("probe", 2*time.Second, "health-probe interval for unhealthy backends")
		audit    = flag.Bool("audit", false, "run the cross-node audit instead of serving")
		epoch    = flag.Int("epoch", -1, "epoch to audit with -audit (-1 = latest merged)")
	)
	flag.Parse()

	addrs := cluster.SplitList(*backends, ",")
	if len(addrs) == 0 {
		log.Fatal("-backends is required: comma-separated node addresses in shard order")
	}

	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: *bins, Coins: *coins, Epsilon: *eps, Delta: *delta})
	if err != nil {
		log.Fatal(err)
	}

	router, err := cluster.New(cluster.Config{
		Pub:      pub,
		Backends: addrs,
		Timeout:  *timeout,
		Retry:    transport.RetryPolicy{Retries: *retries, Backoff: *backoff, MaxBackoff: 2 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *audit {
		report, err := router.AuditCluster(ctx, *epoch, 0)
		if err != nil {
			log.Fatalf("cross-node audit FAILED: %v", err)
		}
		fmt.Printf("cross-node audit: PASSED (epoch %d, %d shards, every board log, digest %x...)\n",
			report.Epoch, report.Shards, report.Digest[:8])
		return
	}

	sts, err := router.CheckTopology()
	if err != nil {
		log.Fatalf("cluster topology check failed: %v", err)
	}
	recovered := 0
	for _, st := range sts {
		recovered += st.Accepted
	}
	router.StartProbes(ctx, *probe)

	// Nodes recovered from their board logs already hold accepted
	// submissions; they count toward the target so a router replacing a
	// crashed one does not wait for clients that already landed.
	d := server.New(ctx, pub, router, server.Options{Accepted: recovered, Target: *clients, Logf: log.Printf})
	drain, err := d.Serve(ctx, *addr, *grace, "verifiable-dp router", fmt.Sprintf("%d shards, epoch %d, %d/%d accepted, M=%d, nb=%d",
		router.Shards(), sts[0].Epoch, recovered, *clients, pub.Bins(), pub.Coins()))
	if err != nil {
		log.Fatal(err)
	}
	drain()

	n := d.Accepted()
	if n == 0 {
		log.Printf("no accepted submissions; leaving the epoch open on the nodes")
		return
	}
	if n < *clients {
		log.Printf("finalizing early with %d/%d clients", n, *clients)
	}

	finalizeCtx, cancelFinalize := context.WithTimeout(context.Background(), *grace)
	defer cancelFinalize()
	res, err := router.FinalizeMerge(finalizeCtx)
	if err != nil {
		log.Fatalf("cluster finalize failed: %v", err)
	}
	printRelease(res.Release)
	for i, t := range res.Transcripts {
		fmt.Printf("  shard %d: %d clients on its board\n", i, len(t.Clients))
	}
	if err := vdp.AuditMerged(finalizeCtx, pub, res.Transcripts, res.Release, 0); err != nil {
		log.Fatalf("merged self-audit failed: %v", err)
	}
	fmt.Printf("merged transcript audit: PASSED (epoch %d, digest %x...)\n", res.Epoch, res.Digest[:8])
	fmt.Printf("merged seal replicated to %d nodes; audit cross-node with: vdprouter -backends %s -audit\n",
		router.Shards(), *backends)
}

func printRelease(rel *vdp.Release) {
	fmt.Println("verified release:")
	for j, raw := range rel.Raw {
		fmt.Printf("  bin %d: raw=%d estimate=%.1f (±%.1f)\n", j, raw, rel.Estimate[j], rel.Stddev)
	}
}
