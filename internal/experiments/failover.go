package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// The failover experiment prices the replica-set machinery the router's
// high-availability path is built on: what synchronous mirroring adds to
// every acknowledged submission (replication overhead — the mirrored flood
// against the plain single-replica cluster from the cluster sweep), and how
// long a client-visible outage lasts when a primary dies (failover latency —
// the first routed submission after the kill, which absorbs detection, the
// fenced promotion handshake and the replay).

// FailoverConfig sets the workload for the failover experiment.
type FailoverConfig struct {
	Shards  int // replica pairs behind the router
	Clients int // real submissions flooded per measurement
	Batch   int // submissions per submit-batch frame
	Coins   int // nb for the deployment
}

func failoverConfigFor(s Scale) FailoverConfig {
	switch s {
	case Paper:
		return FailoverConfig{Shards: 4, Clients: 1024, Batch: 64, Coins: 8}
	case Standard:
		return FailoverConfig{Shards: 2, Clients: 256, Batch: 32, Coins: 8}
	default:
		return FailoverConfig{Shards: 2, Clients: 64, Batch: 16, Coins: 6}
	}
}

// FailoverResult holds the experiment's measurements.
type FailoverResult struct {
	Config        FailoverConfig
	PlainFlood    time.Duration // flood through single-replica nodes (no mirroring)
	MirroredFlood time.Duration // same flood with every ack mirrored to a standby
	Promote       time.Duration // kill → first acked submission through the promoted standby
	Finalize      time.Duration // finalize-merge across the failed-over cluster
	Audit         time.Duration // cross-node audit across the failed-over cluster
}

// replicaCluster is an in-process cluster of primary+standby pairs over
// loopback TCP, mirroring synchronously, with a router that owns failover.
type replicaCluster struct {
	Router    *cluster.Router
	Client    *transport.Client
	primaries []*transport.Server
	standbys  []*cluster.Standby
	close     []func()
}

// Close tears the cluster down (client, router, listeners, replicators).
func (rc *replicaCluster) Close() {
	for i := len(rc.close) - 1; i >= 0; i-- {
		rc.close[i]()
	}
}

// KillPrimary closes one shard's primary listener mid-flight — the crash the
// router must detect and absorb by promoting the standby.
func (rc *replicaCluster) KillPrimary(shard int) { rc.primaries[shard].Close() }

// Promoted reports whether the shard's standby has been promoted.
func (rc *replicaCluster) Promoted(shard int) bool { return rc.standbys[shard].Promoted() }

// BootReplicaCluster starts k primary+standby pairs and a router and
// connects a client to the router's listener. Every log is in memory; the
// primaries mirror board and seal records to their standby before any ack,
// and both sides fork the same root seed so a promotion finalizes
// byte-identically to the primary it replaces.
func BootReplicaCluster(ctx context.Context, pub *vdp.Public, k int) (*replicaCluster, error) {
	rc := &replicaCluster{}
	ok := false
	defer func() {
		if !ok {
			rc.Close()
		}
	}()

	retry := transport.RetryPolicy{Retries: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	specs := make([]string, k)
	for i := 0; i < k; i++ {
		sb, err := cluster.NewStandby(ctx, pub, cluster.StandbyConfig{
			Shard: i, Shards: k, Board: store.NewMemLog(), Seal: store.NewMemLog(),
			SessionOpts: vdp.SessionOptions{Rand: bytes.NewReader(clusterSeed())},
		})
		if err != nil {
			return nil, err
		}
		rc.standbys = append(rc.standbys, sb)
		sbSrv, err := transport.Listen("127.0.0.1:0", replicaHandler(ctx, pub, sb))
		if err != nil {
			return nil, err
		}
		rc.close = append(rc.close, func() { sbSrv.Close() })

		repl := cluster.NewReplicator(sbSrv.Addr(), i, k, transport.ClientOptions{
			Timeout: 5 * time.Second, Retry: retry,
		})
		rc.close = append(rc.close, repl.Close)
		board, err := store.NewReplicatedLog(store.NewMemLog(), repl.Mirror(cluster.ReplLogBoard))
		if err != nil {
			return nil, err
		}
		seal, err := store.NewReplicatedLog(store.NewMemLog(), repl.Mirror(cluster.ReplLogSeal))
		if err != nil {
			return nil, err
		}
		sess, err := vdp.NewShardSession(pub,
			vdp.SessionOptions{Rand: bytes.NewReader(clusterSeed()), Store: board}, i, k)
		if err != nil {
			return nil, err
		}
		node, err := cluster.NewNode(ctx, pub, sess, cluster.NodeConfig{
			Shard: i, Shards: k, BoardLog: board, SealLog: seal,
		})
		if err != nil {
			return nil, err
		}
		prSrv, err := transport.Listen("127.0.0.1:0", replicaHandler(ctx, pub, node))
		if err != nil {
			return nil, err
		}
		rc.primaries = append(rc.primaries, prSrv)
		rc.close = append(rc.close, func() { prSrv.Close() })
		specs[i] = prSrv.Addr() + "~" + sbSrv.Addr()
	}

	router, err := cluster.New(cluster.Config{
		Pub: pub, Backends: specs, Timeout: 30 * time.Second, Retry: retry,
	})
	if err != nil {
		return nil, err
	}
	rc.Router = router
	rc.close = append(rc.close, router.Close)

	rsrv, err := transport.Listen("127.0.0.1:0", router.Handler())
	if err != nil {
		return nil, err
	}
	rc.close = append(rc.close, func() { rsrv.Close() })

	rc.Client, err = transport.DialClient(rsrv.Addr(), transport.ClientOptions{Timeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	rc.close = append(rc.close, func() { rc.Client.Close() })
	ok = true
	return rc, nil
}

// FloodReplicaCluster pushes subs through the replica cluster's client in
// batch-sized frames, failing on any rejected verdict.
func FloodReplicaCluster(rc *replicaCluster, pub *vdp.Public, subs []*vdp.ClientSubmission, batch int) error {
	return floodThrough(rc.Client, pub, subs, batch)
}

// FailoverSweep runs the experiment: the plain and mirrored floods, the
// kill-to-first-ack promotion, and the sealed epoch's finalize + audit across
// the failed-over cluster — requiring the mirrored digest to match the plain
// cluster's, which is the whole point of synchronous mirroring.
func FailoverSweep(cfg FailoverConfig) (*FailoverResult, error) {
	if cfg.Shards < 1 || cfg.Clients < 1 || cfg.Batch < 1 {
		return nil, fmt.Errorf("experiments: invalid failover config %+v", cfg)
	}
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: 1, Coins: cfg.Coins})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	subs := make([]*vdp.ClientSubmission, cfg.Clients)
	for i := range subs {
		if subs[i], err = pub.NewClientSubmission(i, i%2, nil); err != nil {
			return nil, err
		}
	}
	// The post-kill probe: a fresh client whose id routes to shard 0.
	killID := cfg.Clients
	for vdp.ShardOf(killID, cfg.Shards) != 0 {
		killID++
	}
	killSub, err := pub.NewClientSubmission(killID, 1, nil)
	if err != nil {
		return nil, err
	}

	res := &FailoverResult{Config: cfg}

	// Baseline: the same flood through single-replica nodes. The kill probe
	// is landed here too, so the plain epoch holds exactly the population the
	// mirrored, failed-over epoch will — and the digests must match.
	lc, err := BootCluster(ctx, pub, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("experiments: booting plain cluster: %w", err)
	}
	res.PlainFlood, err = timeIt(func() error { return FloodCluster(lc, pub, subs, cfg.Batch) })
	var plainDigest []byte
	if err == nil {
		err = submitThrough(lc.Client, pub, killSub)
	}
	if err == nil {
		var mres *cluster.MergeResult
		if mres, err = lc.Router.FinalizeMerge(ctx); err == nil {
			plainDigest = mres.Digest
		}
	}
	lc.Close()
	if err != nil {
		return nil, fmt.Errorf("experiments: plain cluster: %w", err)
	}

	// Mirrored: every ack waits for the standby.
	rc, err := BootReplicaCluster(ctx, pub, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("experiments: booting replica cluster: %w", err)
	}
	defer rc.Close()
	res.MirroredFlood, err = timeIt(func() error { return FloodReplicaCluster(rc, pub, subs, cfg.Batch) })
	if err != nil {
		return nil, fmt.Errorf("experiments: mirrored flood: %w", err)
	}

	// Failover: record the status floor, kill shard 0's primary, and time the
	// next routed submission — detection + fenced promotion + replay.
	if _, err := rc.Router.Statuses(); err != nil {
		return nil, fmt.Errorf("experiments: pre-kill statuses: %w", err)
	}
	rc.KillPrimary(0)
	res.Promote, err = timeIt(func() error {
		return submitThrough(rc.Client, pub, killSub)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: post-kill submission: %w", err)
	}
	if !rc.Promoted(0) {
		return nil, fmt.Errorf("experiments: shard 0's standby was not promoted")
	}

	var mres *cluster.MergeResult
	res.Finalize, err = timeIt(func() error {
		var ferr error
		mres, ferr = rc.Router.FinalizeMerge(ctx)
		return ferr
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: finalize across failover: %w", err)
	}
	res.Audit, err = timeIt(func() error {
		report, aerr := rc.Router.AuditCluster(ctx, -1, 0)
		if aerr == nil && !bytes.Equal(report.Digest, mres.Digest) {
			aerr = fmt.Errorf("audit digest does not match the merged seal")
		}
		return aerr
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: audit across failover: %w", err)
	}
	if !bytes.Equal(mres.Digest, plainDigest) {
		return nil, fmt.Errorf("experiments: failed-over digest diverged from the plain cluster's")
	}
	return res, nil
}

// Format renders the experiment.
func (r *FailoverResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replica-set failover over loopback TCP (%d shards × primary+standby, %d clients in batches of %d, nb=%d, GOMAXPROCS=%d)\n",
		r.Config.Shards, r.Config.Clients, r.Config.Batch, r.Config.Coins, runtime.GOMAXPROCS(0))
	per := func(d time.Duration) time.Duration { return d / time.Duration(r.Config.Clients) }
	overhead := 0.0
	if r.PlainFlood > 0 {
		overhead = (float64(r.MirroredFlood)/float64(r.PlainFlood) - 1) * 100
	}
	fmt.Fprintf(&b, "%-26s %-14s %s\n", "measurement", "total", "per submission")
	fmt.Fprintf(&b, "%-26s %-14s %s\n", "flood (no standby)", fmtDuration(r.PlainFlood), fmtDuration(per(r.PlainFlood)))
	fmt.Fprintf(&b, "%-26s %-14s %s   (%+.1f%% replication overhead)\n",
		"flood (mirrored acks)", fmtDuration(r.MirroredFlood), fmtDuration(per(r.MirroredFlood)), overhead)
	fmt.Fprintf(&b, "%-26s %-14s %s\n", "failover (kill → ack)", fmtDuration(r.Promote), "—")
	fmt.Fprintf(&b, "%-26s %-14s %s\n", "finalize-merge after", fmtDuration(r.Finalize), "—")
	fmt.Fprintf(&b, "%-26s %-14s %s\n", "cross-node audit after", fmtDuration(r.Audit), "—")
	b.WriteString("mirrored acks = every submission's verdict lands on the shard's standby before the\n")
	b.WriteString("client hears it; failover = one primary killed mid-epoch, timed from the kill to the\n")
	b.WriteString("first acknowledged submission through the promoted standby (detection + fenced\n")
	b.WriteString("promotion + replay), with no operator action anywhere.\n")
	return b.String()
}

// FailoverAtScale runs the failover experiment at a named scale.
func FailoverAtScale(s Scale) (*FailoverResult, error) {
	return FailoverSweep(failoverConfigFor(s))
}

// submitThrough pushes one submission through a client connection and
// requires an ack.
func submitThrough(cli *transport.Client, pub *vdp.Public, sub *vdp.ClientSubmission) error {
	payload, err := pub.EncodeSubmitPayload(sub)
	if err != nil {
		return err
	}
	reply, err := cli.RoundTrip(&transport.Frame{Kind: "submit", Sender: sub.Public.ID, Payload: payload})
	if err != nil {
		return err
	}
	if reply.Kind != "ack" {
		return fmt.Errorf("experiments: submission answered %q: %s", reply.Kind, reply.Payload)
	}
	return nil
}

// floodThrough pushes subs through a client connection in batch-sized
// submit-batch frames, failing on any rejected verdict.
func floodThrough(cli *transport.Client, pub *vdp.Public, subs []*vdp.ClientSubmission, batch int) error {
	for off := 0; off < len(subs); off += batch {
		end := off + batch
		if end > len(subs) {
			end = len(subs)
		}
		reply, err := cli.RoundTrip(&transport.Frame{
			Kind:    "submit-batch",
			Payload: pub.EncodeSubmissionBatch(subs[off:end]),
		})
		if err != nil {
			return err
		}
		if reply.Kind != "batch-verdicts" {
			return fmt.Errorf("experiments: flood reply %q: %s", reply.Kind, reply.Payload)
		}
		verdicts, err := vdp.DecodeBatchVerdicts(reply.Payload)
		if err != nil {
			return err
		}
		for _, v := range verdicts {
			if !v.Accepted {
				return fmt.Errorf("experiments: rejected client %d: %s", v.ID, v.Reason)
			}
		}
	}
	return nil
}
