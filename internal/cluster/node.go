package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// Node is the per-shard server half of the cluster: it wraps one
// single-shard vdp.Session (seeded with the exact substream a
// single-process ShardedSession would hand shard i of K, so the merged
// digest comes out byte-identical) and answers the cluster RPC. The hot
// admission path stays entirely local — the only network coordination is
// the finalize-merge handshake and audit fetches.
type Node struct {
	pub    *vdp.Public
	sess   *vdp.Session
	shard  int
	shards int
	ctx    context.Context

	// boardLog is the session's own board log (a MemLog for a memory-only
	// node), served in ranges over KindLog.
	boardLog store.Log
	// seals is the merged-seal book over the sidecar log: RecordMergedSeal
	// records replicated from the router, one per merged epoch, so the
	// cluster-level seal survives on every node even though the router keeps
	// no state. Without a sidecar the book is memory-only.
	seals *vdp.MergedSeals

	mu sync.Mutex // serializes the session's epoch turns
}

// NodeConfig configures NewNode.
type NodeConfig struct {
	// Shard and Shards position this node in the cluster; the session must
	// have been opened with NewShardSession/ResumeShardSession for the same
	// coordinates or merged digests will not reproduce.
	Shard, Shards int
	// BoardLog is the session's board log (required): a node serves it over
	// KindLog to the cross-node audit and the live tail.
	BoardLog store.Log
	// SealLog is the merged-seal sidecar log, if any. Existing records are
	// replayed into the node's merged-seal book, so a restarted node still
	// knows its merged epochs.
	SealLog store.Log
}

// NewNode wraps a shard session for cluster serving, replaying any existing
// merged-seal sidecar records.
func NewNode(ctx context.Context, pub *vdp.Public, sess *vdp.Session, cfg NodeConfig) (*Node, error) {
	if sess == nil {
		return nil, fmt.Errorf("cluster: nil session")
	}
	if cfg.BoardLog == nil {
		return nil, fmt.Errorf("cluster: shard %d needs a board log", cfg.Shard)
	}
	seals, err := vdp.OpenMergedSeals(cfg.SealLog, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", cfg.Shard, err)
	}
	return &Node{
		pub:      pub,
		sess:     sess,
		shard:    cfg.Shard,
		shards:   cfg.Shards,
		ctx:      ctx,
		boardLog: cfg.BoardLog,
		seals:    seals,
	}, nil
}

// Accepted reports the session's accepted-submission count; the serving loop
// seeds the frame dispatch's counter with it after a recovery.
func (n *Node) Accepted() int { return n.sess.Accepted() }

// Submit admits one submission as a batch of one; SubmitBatch holds the
// node's one admission rule.
func (n *Node) Submit(ctx context.Context, sub *vdp.ClientSubmission) error {
	verdicts, err := n.SubmitBatch(ctx, []*vdp.ClientSubmission{sub})
	if err != nil {
		return err
	}
	return verdicts[0]
}

// SubmitBatch admits a batch through the shard's session, which refuses a
// member ShardOf assigns to another shard with a public verdict rather than
// admitting it into the wrong sub-board.
func (n *Node) SubmitBatch(ctx context.Context, subs []*vdp.ClientSubmission) ([]error, error) {
	return n.sess.SubmitBatch(ctx, subs)
}

// Status snapshots the node for KindStatus replies.
func (n *Node) Status() *NodeStatus {
	_, _, merged := n.seals.Get(n.sess.Epoch())
	return &NodeStatus{
		Shard:        n.shard,
		Shards:       n.shards,
		Epoch:        n.sess.Epoch(),
		Submitted:    n.sess.Submitted(),
		Accepted:     n.sess.Accepted(),
		Finalized:    n.sess.Finalized(),
		MergedSealed: merged,
		// A ReplicatedLog counts its mirrored prefix, not its local total:
		// records the standby never confirmed must not raise the promotion
		// fence, or a primary dying mid-sync would wedge promotion on
		// history nobody acknowledged.
		LogLen: n.boardLog.Len(),
	}
}

// Handle serves one cluster RPC frame and always produces exactly one reply
// frame — KindError for failures — so the router's persistent connection
// survives malformed or unserviceable requests.
func (n *Node) Handle(f *transport.Frame) []*transport.Frame {
	reply := n.handle(f)
	return []*transport.Frame{reply}
}

func (n *Node) handle(f *transport.Frame) *transport.Frame {
	switch f.Kind {
	case KindStatus:
		return &transport.Frame{Kind: okKind(KindStatus), Payload: encodeStatus(n.Status())}

	case KindSeal:
		epoch, err := decodeIndexReq(f.Payload)
		if err != nil {
			return errFrame("%v", err)
		}
		return n.seal(epoch)

	case KindLog:
		return shipLog(n.shard, n.boardLog, f.Payload)

	case KindMergedSeal:
		epoch, shards, digest, err := decodeMergedSeal(f.Payload)
		if err != nil {
			return errFrame("%v", err)
		}
		return n.recordMergedSeal(epoch, shards, digest)

	case KindMergedGet:
		epoch, err := decodeMergedGetReq(f.Payload)
		if err != nil {
			return errFrame("%v", err)
		}
		return mergedGet(n.seals, epoch, n.shards, fmt.Sprintf("shard %d", n.shard))

	case KindReset:
		epoch, err := decodeIndexReq(f.Payload)
		if err != nil {
			return errFrame("%v", err)
		}
		return n.reset(epoch)

	default:
		return errFrame("cluster: unknown rpc kind %q", f.Kind)
	}
}

// seal seals the local epoch (idempotently, Session.Seal) and returns the
// sealed transcript. The epoch argument guards against a router and node
// that have drifted apart: sealing is only ever valid for the node's current
// epoch.
func (n *Node) seal(epoch int) *transport.Frame {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch != n.sess.Epoch() {
		return errFrame("cluster: shard %d serves epoch %d, seal requested for epoch %d",
			n.shard, n.sess.Epoch(), epoch)
	}
	res, err := n.sess.Seal(n.ctx)
	if err != nil {
		return errFrame("cluster: shard %d seal: %v", n.shard, err)
	}
	return &transport.Frame{
		Kind:    okKind(KindSeal),
		Payload: encodeTranscriptReply(epoch, n.pub.EncodeTranscript(res.Transcript)),
	}
}

// shipLog answers a KindLog request from a board log: the log's Len — for a
// replicated log only the mirrored prefix — and one chunk of the records
// from the requested index on, none when the index is at or past the end.
// Only the shipped records are read. Shared by nodes and unpromoted
// standbys (which serve their mirrored log to followers).
func shipLog(shard int, log store.Log, req []byte) *transport.Frame {
	from, err := decodeIndexReq(req)
	if err != nil {
		return errFrame("%v", err)
	}
	committed := log.Len()
	var chunk []*store.Record
	if from < committed {
		t, err := log.ReadFrom(from)
		if err != nil {
			return errFrame("cluster: shard %d board log: %v", shard, err)
		}
		defer t.Close()
		for size := 0; from+len(chunk) < committed && chunkHasRoom(len(chunk), size); {
			rec, _, err := t.Next()
			if err != nil {
				return errFrame("cluster: shard %d board log: %v", shard, err)
			}
			chunk = append(chunk, rec)
			size += recordCost(rec)
		}
	}
	payload, err := encodeLogRange(committed, from, chunk)
	if err != nil {
		return errFrame("%v", err)
	}
	return &transport.Frame{Kind: okKind(KindLog), Payload: payload}
}

// recordMergedSeal records the router's merged seal for a locally sealed
// epoch in the node's book — persisted to the sidecar before it is
// acknowledged.
func (n *Node) recordMergedSeal(epoch, shards int, digest []byte) *transport.Frame {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch > n.sess.Epoch() {
		return errFrame("cluster: merged seal for future epoch %d (node at %d)", epoch, n.sess.Epoch())
	}
	if epoch == n.sess.Epoch() && !n.sess.Finalized() {
		return errFrame("cluster: merged seal for epoch %d, but the local epoch is not sealed", epoch)
	}
	if err := n.seals.Record(epoch, shards, digest); err != nil {
		return errFrame("cluster: shard %d: %v", n.shard, err)
	}
	return &transport.Frame{Kind: okKind(KindMergedSeal)}
}

// mergedGet answers KindMergedGet from a merged-seal book — a node's
// recorded seals or a standby's mirrored ones. epoch < 0 selects the newest;
// who names the server in a refusal.
func mergedGet(seals *vdp.MergedSeals, epoch, shards int, who string) *transport.Frame {
	sealed, digest, ok := seals.Get(epoch)
	switch {
	case !ok && epoch < 0:
		return errFrame("cluster: %s has no merged seal yet", who)
	case !ok:
		return errFrame("cluster: %s has no merged seal for epoch %d", who, epoch)
	}
	return &transport.Frame{
		Kind:    okKind(KindMergedGet),
		Payload: encodeMergedSeal(sealed, shards, digest),
	}
}

// reset opens the next epoch. Only a merged-sealed epoch may be reset: the
// router drives resets after the merged seal is replicated, so a node never
// discards an epoch the cluster has not finished merging.
func (n *Node) reset(epoch int) *transport.Frame {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch != n.sess.Epoch() {
		return errFrame("cluster: shard %d serves epoch %d, reset requested for epoch %d",
			n.shard, n.sess.Epoch(), epoch)
	}
	if !n.sess.Finalized() {
		return errFrame("cluster: refusing to reset open epoch %d", epoch)
	}
	if _, _, ok := n.seals.Get(epoch); !ok {
		return errFrame("cluster: refusing to reset epoch %d before its merged seal is recorded", epoch)
	}
	if err := n.sess.Reset(); err != nil {
		return errFrame("cluster: shard %d reset: %v", n.shard, err)
	}
	return &transport.Frame{Kind: okKind(KindReset)}
}
