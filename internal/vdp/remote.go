package vdp

import (
	"context"
	"fmt"

	"repro/internal/store"
	"repro/internal/wire"
)

// Remote sharding: the entry points a multi-node deployment needs.
//
// internal/cluster runs one Session per node behind a thin router, with the
// shard boundary promoted from a goroutine boundary (ShardedSession) to a
// network boundary. Digest parity is the contract that makes the promotion
// safe: NewShardSession seeds node i of K with exactly the forkShard(i, K)
// substream a single-process ShardedSession would hand its sub-session i, so
// K nodes fed the same submissions produce per-shard transcripts — and
// therefore a MergedTranscriptDigest — byte-identical to the single-process
// run under the same root seed. Each node's board log speaks the ordinary
// single-session record grammar, so ResumeSession-style recovery and AuditLog
// work per node unchanged; the helpers here add the cross-node merge and
// audit on top, plus the zero-crypto byte-level peeks the router uses to
// route raw frames without decoding a single group element. Both client
// frame kinds carry EncodeClientSubmission records, hint sections included —
// a "submit" body is one record, a "submit-batch" body a count of them — so
// one peek serves both, and the router forwards every record verbatim.

// NewShardSession opens the Session for one node of a K-node cluster: shard
// `shard` of `shards`. opts.Rand is read once for the root seed (every node
// must be given the same root seed bytes); the session then draws from the
// forkShard(shard, shards) substream, which is exactly what a single-process
// ShardedSession hands its sub-session `shard` — the seed arrangement that
// makes the cluster's merged digest byte-identical to the single-process
// one. The session admits only the clients ShardOf assigns to `shard`, as
// its board log's readers accept only those. opts.Store, when set, is the
// node's own board log (single-session grammar); opts.Shards and
// opts.Segmented must be unset — the shard split lives in the cluster
// topology, not inside the node's session.
func NewShardSession(pub *Public, opts SessionOptions, shard, shards int) (*Session, error) {
	if err := ensureEmptyLog(opts.Store); err != nil {
		return nil, err
	}
	src, err := shardSource(opts, shard, shards)
	if err != nil {
		return nil, err
	}
	return newSessionFromSource(pub, opts, src, shard, shards), nil
}

// ResumeShardSession recovers one cluster node's Session from its board log
// after a restart, with ResumeSession's exact replay semantics but the
// shard's forkShard substream, so the recovered node still finalizes to the
// same per-shard transcript the uninterrupted run would have produced.
// opts.Rand must carry the original root seed.
func ResumeShardSession(ctx context.Context, pub *Public, opts SessionOptions, shard, shards int) (*Session, error) {
	src, err := shardSource(opts, shard, shards)
	if err != nil {
		return nil, err
	}
	return resumeSessionFromSource(ctx, pub, opts, src, shard, shards)
}

// shardSource validates a shard session's (shard, shards) pair and options
// and returns its forkShard substream of the root seed opts.Rand carries.
func shardSource(opts SessionOptions, shard, shards int) (*randSource, error) {
	switch {
	case shards < 1:
		return nil, fmt.Errorf("%w: shard count %d", ErrBadConfig, shards)
	case shard < 0 || shard >= shards:
		return nil, fmt.Errorf("%w: shard index %d out of range [0,%d)", ErrBadConfig, shard, shards)
	case opts.Shards > 1 || opts.Segmented != nil:
		return nil, fmt.Errorf("%w: a shard session is one node of an external shard split; leave Shards/Segmented unset", ErrBadConfig)
	}
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	return root.forkShard(shard, shards), nil
}

// Replayer is the one method the replay-driven readers need of a board log
// (store.BoardLog has it), so a log read over the network can stand in for
// a local one.
type Replayer interface {
	// Replay streams every record in append order to fn, stopping at the
	// first error fn returns (which Replay then propagates).
	Replay(fn func(*store.Record) error) error
}

// AuditMergedLogs audits one merged epoch across the per-node board logs of
// a cluster, in shard order: seal looks the epoch's recorded merged seal up
// (epoch < 0: the newest), each log is audited exactly as AuditLog audits
// a single session's log (sealed transcript fully re-verified AND
// cross-checked against the log's own per-arrival records) with its grammar
// pinned to the shard map — every client on the shard ShardOf assigns it,
// hence none on two — and the merged digest over the K recovered transcripts
// must equal the seal. It returns the audited epoch and its digest. It is
// AuditSegmentedLog with the segments fetched from K machines instead of one
// directory. workers follows the AuditParallel convention (0 = all cores).
func AuditMergedLogs(ctx context.Context, pub *Public, logs []Replayer, epoch, workers int, seal func(epoch int) (int, []byte, error)) (int, []byte, error) {
	return auditMerged(ctx, pub, logs, epoch, workers, shardSegments, seal)
}

// peekClientPublicID reads the client ID off a raw EncodeClientPublic
// encoding without validating anything beyond the version byte — the
// routing peek.
func peekClientPublicID(pubRaw []byte) (int, error) {
	r := versioned(pubRaw)
	id := int(r.U32())
	return id, r.Err()
}

// PeekSubmissionID reads the client ID off a raw EncodeClientSubmission
// record — a "submit" frame body, or one member of a "submit-batch" — by its
// framing alone, decoding no group element: the router's routing peek.
func PeekSubmissionID(rec []byte) (int, error) {
	r := versioned(rec)
	return wire.Parse(&r, r.Blob(), peekClientPublicID), r.Err()
}

// SplitSubmissionBatch cuts an encoded "submit-batch" frame body into its
// raw per-submission records, reading nothing inside them — the dispatch's
// one cut of a frame. Each returned record is the exact
// EncodeClientSubmission encoding (version | blob(public) | payload count |
// payloads | hints), so EncodeRawSubmissionBatch can reassemble per-shard
// sub-batches byte-identically; whoever admits a record reads its client ID
// (PeekSubmissionID, DecodeClientSubmission) and refuses the whole frame if
// one cannot be read.
func SplitSubmissionBatch(b []byte) ([][]byte, error) {
	r := versioned(b)
	recs := make([][]byte, r.Count(MaxBatchClients, 4))
	for i := range recs {
		recs[i] = r.Blob()
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

// EncodeRawSubmissionBatch reassembles raw submission records (as returned
// by SplitSubmissionBatch) into a "submit-batch" frame body. Because each
// record is carried verbatim, a backend decoding the sub-batch sees bytes
// identical to what the client sent.
func EncodeRawSubmissionBatch(recs [][]byte) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(len(recs)))
	for _, rec := range recs {
		w.Blob(rec)
	}
	return w.Bytes()
}
