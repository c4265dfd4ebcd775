package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// The cluster experiment measures the multi-node scale-out path end to end
// over real loopback TCP: K single-shard nodes behind a vdprouter-style
// front door, flooded with batched submissions through the full wire path
// (client → router → owning node → verdicts back), then the finalize-merge
// handshake and the cross-node audit. Against the sharding sweep (same
// partitioning, one process) it isolates what the network hop and the
// merge RPC cost — the price of scaling with machines instead of cores.

// ClusterConfig sets the workload for the cluster experiment.
type ClusterConfig struct {
	NodeCounts []int // swept cluster sizes
	Clients    int   // real submissions flooded per point
	Batch      int   // submissions per submit-batch frame
	Coins      int   // nb for the deployment
}

func clusterConfigFor(s Scale) ClusterConfig {
	switch s {
	case Paper:
		return ClusterConfig{NodeCounts: []int{1, 2, 4, 8}, Clients: 2048, Batch: 128, Coins: 8}
	case Standard:
		return ClusterConfig{NodeCounts: []int{1, 2, 4}, Clients: 512, Batch: 64, Coins: 8}
	default:
		return ClusterConfig{NodeCounts: []int{1, 2, 3}, Clients: 96, Batch: 32, Coins: 6}
	}
}

// ClusterPoint is one swept cluster size's measurements.
type ClusterPoint struct {
	Nodes    int
	Flood    time.Duration // batched submissions through router + nodes, full TCP path
	Finalize time.Duration // finalize-merge handshake (seal all nodes, merge, replicate seal)
	Audit    time.Duration // cross-node audit from fetched per-node board logs
}

// ClusterResult holds the sweep.
type ClusterResult struct {
	Config ClusterConfig
	Points []ClusterPoint
}

// loopCluster is an in-process K-node cluster over loopback TCP: K nodes
// with in-memory board logs, a router, and one client connection to the
// router's listener. It is the booted topology both the cluster sweep and
// the bench JSON snapshot measure against.
type loopCluster struct {
	Router *cluster.Router
	Client *transport.Client
	close  []func()
}

// Close tears the cluster down (client, router, listeners).
func (lc *loopCluster) Close() {
	for i := len(lc.close) - 1; i >= 0; i-- {
		lc.close[i]()
	}
}

// clusterSeed is the deterministic root seed every node of a booted
// cluster forks its shard substream from.
func clusterSeed() []byte {
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i*31 + 5)
	}
	return seed
}

// BootCluster starts K loopback nodes and a router and connects a client
// to the router's listener.
func BootCluster(ctx context.Context, pub *vdp.Public, k int) (*loopCluster, error) {
	lc := &loopCluster{}
	ok := false
	defer func() {
		if !ok {
			lc.Close()
		}
	}()

	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		boardLog, sealLog := store.NewMemLog(), store.NewMemLog()
		sess, err := vdp.NewShardSession(pub,
			vdp.SessionOptions{Rand: bytes.NewReader(clusterSeed()), Store: boardLog}, i, k)
		if err != nil {
			return nil, err
		}
		node, err := cluster.NewNode(ctx, pub, sess, cluster.NodeConfig{
			Shard: i, Shards: k, BoardLog: boardLog, SealLog: sealLog,
		})
		if err != nil {
			return nil, err
		}
		srv, err := transport.Listen("127.0.0.1:0", replicaHandler(ctx, pub, node))
		if err != nil {
			return nil, err
		}
		lc.close = append(lc.close, func() { srv.Close() })
		addrs[i] = srv.Addr()
	}

	router, err := cluster.New(cluster.Config{
		Pub:      pub,
		Backends: addrs,
		Timeout:  30 * time.Second,
		Retry:    transport.RetryPolicy{Retries: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	lc.Router = router
	lc.close = append(lc.close, router.Close)

	rsrv, err := transport.Listen("127.0.0.1:0", router.Handler())
	if err != nil {
		return nil, err
	}
	lc.close = append(lc.close, func() { rsrv.Close() })

	lc.Client, err = transport.DialClient(rsrv.Addr(), transport.ClientOptions{Timeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	lc.close = append(lc.close, func() { lc.Client.Close() })
	ok = true
	return lc, nil
}

// replica is what a node and a standby have in common: a board to admit into
// and a cluster RPC endpoint.
type replica interface {
	server.Board
	Handle(*transport.Frame) []*transport.Frame
}

// replicaHandler is the frame dispatch cmd/vdpserver runs in node and standby
// mode: the cluster RPC first, then the shared admission dispatch (a standby
// refuses admissions until promoted).
func replicaHandler(ctx context.Context, pub *vdp.Public, r replica) transport.Handler {
	return server.New(ctx, pub, server.Of(r), server.Options{Extra: cluster.Demux(r.Handle)}).Handle
}

// FloodCluster pushes subs through the cluster's client connection in
// batch-sized submit-batch frames, failing on any rejected verdict.
func FloodCluster(lc *loopCluster, pub *vdp.Public, subs []*vdp.ClientSubmission, batch int) error {
	return floodThrough(lc.Client, pub, subs, batch)
}

// ClusterSweep runs the experiment over cfg.NodeCounts.
func ClusterSweep(cfg ClusterConfig) (*ClusterResult, error) {
	if len(cfg.NodeCounts) == 0 || cfg.Clients < 1 || cfg.Batch < 1 {
		return nil, fmt.Errorf("experiments: invalid cluster config %+v", cfg)
	}
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: 1, Coins: cfg.Coins})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	subs := make([]*vdp.ClientSubmission, cfg.Clients)
	for i := range subs {
		sub, err := pub.NewClientSubmission(i, i%2, nil)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}

	res := &ClusterResult{Config: cfg}
	for _, k := range cfg.NodeCounts {
		lc, err := BootCluster(ctx, pub, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: booting %d-node cluster: %w", k, err)
		}
		pt := ClusterPoint{Nodes: k}
		pt.Flood, err = timeIt(func() error { return FloodCluster(lc, pub, subs, cfg.Batch) })
		if err == nil {
			pt.Finalize, err = timeIt(func() error {
				_, ferr := lc.Router.FinalizeMerge(ctx)
				return ferr
			})
		}
		if err == nil {
			pt.Audit, err = timeIt(func() error {
				report, aerr := lc.Router.AuditCluster(ctx, -1, 0)
				if aerr == nil && report.Source != "logs" {
					aerr = fmt.Errorf("expected log-grade audit, got %s", report.Source)
				}
				return aerr
			})
		}
		lc.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: %d-node cluster: %w", k, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Format renders the sweep.
func (r *ClusterResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster sweep over loopback TCP (%d clients in batches of %d, nb=%d, GOMAXPROCS=%d)\n",
		r.Config.Clients, r.Config.Batch, r.Config.Coins, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-8s %-14s %-16s %-12s %-14s %s\n",
		"nodes", "flood/sub", "submissions/s", "vs 1 node", "finalize", "audit")
	var base time.Duration
	for i, pt := range r.Points {
		per := pt.Flood / time.Duration(r.Config.Clients)
		if i == 0 {
			base = per
		}
		rel := "—"
		if i > 0 && per > 0 {
			rel = fmt.Sprintf("%.2fx", float64(base)/float64(per))
		}
		rate := float64(r.Config.Clients) / pt.Flood.Seconds()
		fmt.Fprintf(&b, "%-8d %-14s %-16.0f %-12s %-14s %s\n",
			pt.Nodes, fmtDuration(per), rate, rel, fmtDuration(pt.Finalize), fmtDuration(pt.Audit))
	}
	b.WriteString("flood = batched admission through the full wire path (client → router → owning node),\n")
	b.WriteString("with eager per-arrival verification on each node's own cores. finalize = the merged-seal\n")
	b.WriteString("handshake (seal every node, merge in shard order, replicate the seal); audit = fetching\n")
	b.WriteString("every node's board log and re-verifying the merged epoch against the recorded seal.\n")
	return b.String()
}

// ClusterSweepAtScale runs the cluster experiment at a named scale. When
// nodeCounts is non-empty it overrides the swept sizes.
func ClusterSweepAtScale(s Scale, nodeCounts []int) (*ClusterResult, error) {
	cfg := clusterConfigFor(s)
	if len(nodeCounts) > 0 {
		cfg.NodeCounts = nodeCounts
	}
	return ClusterSweep(cfg)
}
