package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// Router is the stateless front door of a K-node cluster. It is one more
// server.Admitter, so the client wire protocol ("submit", "submit-batch") on
// the outside is served by the one server.Dispatch, and it speaks the cluster
// RPC on the inside: submissions are routed by ShardOf to the owning node
// over a persistent backend connection, and at finalize time the router
// drives the merged-seal handshake — seal every node, merge the K sealed
// transcripts in shard order, replicate the merged seal back to every node.
// The router itself keeps no durable state; everything needed to resume or
// audit the cluster lives on the nodes, so a router restart mid-epoch is
// harmless.
type Router struct {
	pub      *vdp.Public
	backends []*Backend
}

// Config configures a Router.
type Config struct {
	// Pub is the shared protocol public parameters (same -clients/-bins/-eps
	// derivation as the nodes).
	Pub *vdp.Public
	// Backends lists shard replica sets in shard order: Backends[i] serves
	// shard i of len(Backends). Each entry is either a single node address
	// or a "primary~standby" pair; with a pair configured, the router
	// promotes the standby when the primary fails. Verified against each
	// node's own claim by CheckTopology.
	Backends []string
	// Timeout bounds each backend round-trip leg; Retry governs backend
	// dials and idempotent-RPC retries.
	Timeout time.Duration
	Retry   transport.RetryPolicy
	// Dial overrides how backend connections are opened (nil = TCP); the
	// chaos harness injects transport.FaultPlan wrappers here.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// New builds a Router. No connections are opened yet; backends are dialed
// lazily on first use (or by CheckTopology / the probe loop).
func New(cfg Config) (*Router, error) {
	if cfg.Pub == nil {
		return nil, fmt.Errorf("cluster: router needs public parameters")
	}
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one backend")
	}
	opts := transport.ClientOptions{Timeout: cfg.Timeout, Retry: cfg.Retry, Dial: cfg.Dial}
	r := &Router{pub: cfg.Pub}
	for i, spec := range cfg.Backends {
		addrs := SplitList(spec, "~")
		if len(addrs) == 0 {
			return nil, fmt.Errorf("cluster: backend %d has an empty address spec", i)
		}
		r.backends = append(r.backends, NewBackend(addrs, i, opts))
	}
	return r, nil
}

// SplitList parses an address list flag: entries separated by sep, trimmed,
// empty ones dropped. The -backends flag is a ","-list of shards in shard
// order, each a "~"-list of replica addresses, primary first.
func SplitList(spec, sep string) []string {
	var out []string
	for _, a := range strings.Split(spec, sep) {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Shards returns the cluster's shard count.
func (r *Router) Shards() int { return len(r.backends) }

// Close drops all backend connections.
func (r *Router) Close() {
	for _, b := range r.backends {
		b.Close()
	}
}

// StartProbes launches a background health-probe loop: every interval, each
// unhealthy backend gets a status probe, which (via Call's redial) pulls a
// restarted node back into rotation — and when the probe still fails and the
// shard has a standby, the router fails the shard over, promoting the
// standby. Returns after ctx is done.
func (r *Router) StartProbes(ctx context.Context, interval time.Duration) {
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				for _, b := range r.backends {
					if b.Healthy() {
						continue
					}
					if _, err := b.status(); err == nil {
						continue
					}
					if b.HasStandby() {
						_ = b.Failover(len(r.backends)) // next tick retries on failure
					}
				}
			}
		}
	}()
}

// submitShard performs one non-idempotent submit round trip with failover:
// if the active replica fails the submit, it is probed once (distinguishing
// a dropped connection from a dead node — a live node just costs the client
// a retry), and only a dead primary with a standby triggers promotion, after
// which the submit is replayed once. The replay is safe precisely because
// duplicate screening happens before anything touches the board: if the
// original submit did land, the replay is rejected as a duplicate without
// leaving a record, the same contract a client-side retry relies on.
func (r *Router) submitShard(sh int, f *transport.Frame) (*transport.Frame, error) {
	b := r.backends[sh]
	reply, err := b.Submit(f)
	if err == nil {
		return reply, nil
	}
	if _, perr := b.status(); perr == nil {
		return nil, err // replica alive: surface the failure, client retries
	}
	if !b.HasStandby() {
		return nil, err
	}
	if ferr := b.Failover(len(r.backends)); ferr != nil {
		return nil, fmt.Errorf("%v (failover: %v)", err, ferr)
	}
	return b.Submit(f)
}

// Handler returns the client-facing frame handler: the router behind a
// server.Dispatch with no target, for callers that keep no count of their
// own.
func (r *Router) Handler() transport.Handler {
	return server.New(context.Background(), r.pub, r, server.Options{}).Handle
}

// SubmitBatch makes the router a server.Admitter: it peeks each record's
// client ID (the router never decodes, let alone verifies, a proof; pub is
// the nodes' to decode under) and routes the records to the shards that own
// them. A record whose ID cannot be peeked refuses the whole frame.
func (r *Router) SubmitBatch(_ context.Context, _ *vdp.Public, recs [][]byte) ([]vdp.BatchVerdict, error) {
	ids := make([]int, len(recs))
	for i, rec := range recs {
		var err error
		if ids[i], err = vdp.PeekSubmissionID(rec); err != nil {
			return nil, err
		}
	}
	return r.route(recs, ids), nil
}

// shardLeg forwards one shard's share of a client frame — raw submission
// records and the client IDs peeked from them — as one submit-batch round
// trip (with failover, see submitShard) and returns the shard's verdicts, one
// per record in order. A leg that fails as a whole returns the error every
// one of its members failed with instead. The batch form matters even for a
// single record: its verdict reply names the client, which a single "submit"
// reply does not, so a desynced reply stream is caught.
func (r *Router) shardLeg(sh int, recs [][]byte, ids []int) ([]vdp.BatchVerdict, error) {
	reply, err := r.submitShard(sh, &transport.Frame{Kind: "submit-batch", Payload: vdp.EncodeRawSubmissionBatch(recs)})
	if err != nil {
		return nil, fmt.Errorf("shard %d unavailable: %v", sh, err)
	}
	if reply.Kind == "error" {
		return nil, fmt.Errorf("shard %d: %s", sh, reply.Payload)
	}
	vs, err := vdp.DecodeBatchVerdicts(reply.Payload)
	if reply.Kind != "batch-verdicts" || err != nil || len(vs) != len(ids) {
		r.backends[sh].Close() // possibly a stale queued reply: redial in sync
		return nil, fmt.Errorf("shard %d returned a malformed verdict reply", sh)
	}
	for j, id := range ids {
		if vs[j].ID != id {
			// Right shape, wrong clients: a desynced reply stream (e.g. a
			// duplicated frame queued a stale reply) answering with the
			// previous batch's verdicts; drop the connection so the next round
			// trip redials in sync.
			r.backends[sh].Close()
			return nil, fmt.Errorf("shard %d returned a desynced verdict reply", sh)
		}
	}
	return vs, nil
}

// route admits raw submission records, with the client IDs peeked from
// them: it groups them by ShardOf, forwards the groups concurrently, and
// returns the verdicts in the records' order. Members of an unavailable shard
// get individual unavailable verdicts; the rest proceed normally.
func (r *Router) route(recs [][]byte, ids []int) []vdp.BatchVerdict {
	k := len(r.backends)
	groups := make([][][]byte, k)
	groupIDs := make([][]int, k)
	indices := make([][]int, k)
	for i, rec := range recs {
		sh := vdp.ShardOf(ids[i], k)
		groups[sh] = append(groups[sh], rec)
		groupIDs[sh] = append(groupIDs[sh], ids[i])
		indices[sh] = append(indices[sh], i)
	}

	out := make([]vdp.BatchVerdict, len(recs))
	var wg sync.WaitGroup
	for sh := range groups {
		if len(groups[sh]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			vs, err := r.shardLeg(sh, groups[sh], groupIDs[sh])
			for j, i := range indices[sh] {
				if err != nil {
					out[i] = vdp.BatchVerdict{ID: ids[i], Reason: err.Error()}
				} else {
					out[i] = vs[j]
				}
			}
		}(sh)
	}
	wg.Wait()
	return out
}

// Statuses queries every backend's status, in shard order. All backends
// must be reachable: a shard whose active replica has died is failed over
// (promoting its standby) and re-queried once before the error surfaces.
func (r *Router) Statuses() ([]*NodeStatus, error) {
	sts := make([]*NodeStatus, len(r.backends))
	errs := make([]error, len(r.backends))
	var wg sync.WaitGroup
	for i, b := range r.backends {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			st, err := b.status()
			if err != nil && b.HasStandby() {
				if ferr := b.Failover(len(r.backends)); ferr == nil {
					st, err = b.status()
				}
			}
			if err != nil {
				errs[i] = fmt.Errorf("shard %d (%s): %w", i, b.Addr(), err)
				return
			}
			sts[i] = st
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sts, nil
}

// CheckTopology verifies that backend i really serves shard i of K and
// that all nodes sit on one epoch, rolling a lagging node forward only when
// that is provably safe: it is exactly one epoch behind, and that epoch is
// sealed locally and merged-sealed — a node a reset broadcast simply missed
// (router crash between merge and reset) — so it is reset and re-checked.
//
// ResumeShardedSession's reconcile rolls a lagging segment forward from
// any distance, open or sealed. Its rule differs because segments of one
// store only ever advance together, by one Reset or Compact, so a segment
// behind its siblings is one whose turnover a crash cut short, and
// completing it is what the caller asked for — discarding an open epoch
// included. Nodes advance only by node-reset, which refuses an open or not
// merged-sealed epoch, so siblings ahead of a node that is open, or more
// than one epoch behind, mean its log does not belong with theirs (a
// restored older disk, say): that skew is reported, not healed.
func (r *Router) CheckTopology() ([]*NodeStatus, error) {
	const maxRollForward = 2 // one re-check after healing
	for attempt := 0; ; attempt++ {
		sts, err := r.Statuses()
		if err != nil {
			return nil, err
		}
		k := len(r.backends)
		maxEpoch := 0
		for i, st := range sts {
			if st.Shard != i || st.Shards != k {
				return nil, fmt.Errorf("cluster: backend %d (%s) identifies as shard %d of %d, want shard %d of %d",
					i, r.backends[i].Addr(), st.Shard, st.Shards, i, k)
			}
			if st.Epoch > maxEpoch {
				maxEpoch = st.Epoch
			}
		}
		healed := false
		for i, st := range sts {
			if st.Epoch == maxEpoch {
				continue
			}
			if st.Epoch != maxEpoch-1 || !st.Finalized || !st.MergedSealed {
				return nil, fmt.Errorf("cluster: epoch skew: shard %d at epoch %d (finalized=%v merged=%v), cluster at epoch %d",
					i, st.Epoch, st.Finalized, st.MergedSealed, maxEpoch)
			}
			if _, err := r.backends[i].rpc(&transport.Frame{Kind: KindReset, Payload: encodeIndexReq(st.Epoch)}); err != nil {
				return nil, fmt.Errorf("cluster: rolling shard %d forward to epoch %d: %w", i, maxEpoch, err)
			}
			healed = true
		}
		if !healed {
			return sts, nil
		}
		if attempt+1 >= maxRollForward {
			return nil, fmt.Errorf("cluster: epoch skew persists after roll-forward")
		}
	}
}

// MergeResult is a completed finalize-merge handshake.
type MergeResult struct {
	Epoch int
	// Transcripts holds each node's sealed transcript, in shard order.
	Transcripts []*vdp.Transcript
	// Release is the merged epoch release (summed per-prover aggregates).
	Release *vdp.Release
	// Digest is the merged transcript digest — byte-identical to what a
	// single-process ShardedSession with Shards=K would seal.
	Digest []byte
}

// FinalizeMerge drives the cluster's finalize handshake: a status/topology
// check, then vdp.SealMerged — the same merge step a ShardedSession takes —
// with a parallel node-seal per shard (idempotent: an already-sealed node
// returns its kept transcript), the shard-order merge, and the merged seal's
// replication to every node as its record step. Every step is retryable: if
// the handshake dies part-way (a node down, the router killed), running
// FinalizeMerge again completes it without double-sealing anything.
func (r *Router) FinalizeMerge(ctx context.Context) (*MergeResult, error) {
	sts, err := r.CheckTopology()
	if err != nil {
		return nil, err
	}
	epoch := sts[0].Epoch
	k := len(r.backends)
	ts, digest, err := vdp.SealMerged(ctx, r.pub, k, func(i int) (*vdp.Transcript, error) {
		return r.seal(i, epoch)
	}, func(digest []byte) error {
		return r.callAll(&transport.Frame{Kind: KindMergedSeal, Payload: encodeMergedSeal(epoch, k, digest)}, "replicating merged seal to")
	})
	if err != nil {
		return nil, err
	}
	release, err := vdp.MergeReleases(r.pub, ts)
	if err != nil {
		return nil, err
	}
	return &MergeResult{Epoch: epoch, Transcripts: ts, Release: release, Digest: digest}, nil
}

// callAll sends one frame to every node in shard order, stopping at the
// first that fails; what, followed by the shard, names the step in the error.
func (r *Router) callAll(f *transport.Frame, what string) error {
	for i, b := range r.backends {
		if _, err := b.rpc(f); err != nil {
			return fmt.Errorf("%s shard %d: %w", what, i, err)
		}
	}
	return nil
}

// seal has node i seal epoch (idempotently) and returns its transcript.
func (r *Router) seal(i, epoch int) (*vdp.Transcript, error) {
	reply, err := r.backends[i].rpc(&transport.Frame{Kind: KindSeal, Payload: encodeIndexReq(epoch)})
	if err != nil {
		return nil, fmt.Errorf("%s on shard %d: %w", KindSeal, i, err)
	}
	got, raw, err := decodeTranscriptReply(reply.Payload)
	if err == nil && got != epoch {
		err = fmt.Errorf("transcript for epoch %d, want %d", got, epoch)
	}
	var t *vdp.Transcript
	if err == nil {
		t, err = r.pub.DecodeTranscript(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("shard %d %s reply: %w", i, KindSeal, err)
	}
	return t, nil
}

// ClusterAudit is the outcome of a cross-node audit.
type ClusterAudit struct {
	Epoch  int
	Shards int
	// Digest is the merged digest recomputed from the nodes' board logs; it
	// matched the merged seal recorded on every node.
	Digest []byte
	// Source names the evidence: always "logs", every node's board log.
	Source string
}

// AuditCluster re-verifies a merged epoch from evidence fetched over the
// wire, by vdp.AuditMergedLogs — the same check AuditSegmentedLog runs over
// one directory: the merged seal recorded on every node (all K must agree),
// and every node's board log, streamed in node-log ranges and audited
// record by record; the recomputed digest must equal the seal byte for
// byte. epoch < 0 audits the newest epoch every node has merged-sealed.
func (r *Router) AuditCluster(ctx context.Context, epoch, workers int) (*ClusterAudit, error) {
	logs := make([]vdp.Replayer, len(r.backends))
	for i, b := range r.backends {
		logs[i] = logStream{b: b}
	}
	// Every node must hold the same merged seal; a single disagreeing node
	// is evidence of a forked merge and fails the audit outright.
	epoch, digest, err := vdp.AuditMergedLogs(ctx, r.pub, logs, epoch, workers, func(epoch int) (int, []byte, error) {
		return clusterSeal(r.backends, epoch, 0)
	})
	if err != nil {
		return nil, err
	}
	return &ClusterAudit{Epoch: epoch, Shards: len(logs), Digest: digest, Source: "logs"}, nil
}
