package vdp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Sharded streaming aggregation: one logical session spread over K
// independent sub-sessions so that Submits routed to different shards never
// contend on a shared roster lock or board log.
//
// The front door (ShardedSession) consistent-hashes every client ID to one
// shard with ShardOf and routes the whole Submit there; each shard is a
// complete Session with its own worker-pool slice, its own deterministic
// substream fork of the root seed, and — when durable — its own board-log
// segment. Finalize fans the per-shard finalizations out in parallel and
// merges the K sealed transcripts, in shard order, into one combined epoch
// release whose integrity is pinned by MergedTranscriptDigest. With
// Shards = 1 the whole construction collapses to a plain Session: same
// substreams, same board order, byte-identical transcript digest.

// ShardOf returns the shard that owns clientID in a deployment with the
// given shard count: FNV-1a over the ID's 8-byte big-endian encoding, mod
// shards. The map is a pure function of (clientID, shards), so every party —
// front door, resuming server, offline auditor, remote submission router —
// derives the same assignment independently.
func ShardOf(clientID, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(int64(clientID)))
	h.Write(b[:])
	return int(h.Sum64() % uint64(shards))
}

// ShardedSession is the scale-out front door over K independent Sessions.
// Submit routes each client to its ShardOf shard without taking any shared
// lock, so submissions on different shards proceed fully concurrently;
// Finalize closes every shard in parallel and merges the results. The
// zero-contention property is the point: a single Session serializes all
// admissions through one roster lock and one board log, which is the
// bottleneck this type removes.
//
// The epoch lifecycle — Epoch, Finalized, Reset, Compact and the
// finalize fan-out with its crash-retry rules — is the segmented-session
// core (segmented.go), shared with SketchSession; what is specific to a
// sharded session is ShardOf routing and the merged histogram release.
type ShardedSession struct {
	*segmentedSession
}

// NewShardedSession opens a sharded session over pub. opts.Shards fixes the
// shard count (0 and 1 both mean one shard); opts.Parallelism is the total
// pool width, divided evenly across the shards (each shard gets at least
// one worker). A durable sharded session sets opts.Segmented — one board-log
// segment per shard plus a manifest — instead of opts.Store, and every
// segment must be empty: a segmented log with history belongs to an earlier
// incarnation and must be recovered with ResumeShardedSession. opts.Rand is
// read once for the root seed; each shard derives an independent child seed
// from it, and with Shards = 1 the shard inherits the root itself, so the
// merged transcript digest is byte-identical to a plain Session's under the
// same seed.
func NewShardedSession(pub *Public, opts SessionOptions) (*ShardedSession, error) {
	return openShardedSession(context.Background(), pub, opts, false)
}

// ResumeShardedSession reconstructs a sharded session from its segmented
// board log after a restart: every shard's segment is replayed and resumed
// exactly as ResumeSession would, pinned to the clients ShardOf assigns it,
// and the shards are reconciled into one session (see
// segmentedSession.reconcile for the interrupted-Reset, interrupted-Finalize
// and missing-merged-seal cases).
//
// opts.Segmented must be the replayed segmented log; it receives all further
// records. opts.Rand must carry the original root seed for deterministic
// reproduction, exactly as with ResumeSession.
func ResumeShardedSession(ctx context.Context, pub *Public, opts SessionOptions) (*ShardedSession, error) {
	return openShardedSession(ctx, pub, opts, true)
}

func openShardedSession(ctx context.Context, pub *Public, opts SessionOptions, resume bool) (*ShardedSession, error) {
	if opts.Store != nil {
		return nil, fmt.Errorf("%w: a sharded session stores its board in SessionOptions.Segmented, not Store", ErrBadConfig)
	}
	shards, err := resolveShardCount(opts)
	if err != nil {
		return nil, err
	}
	g, err := openSegmented(ctx, pub, opts, shards, shardSegments, resume)
	if err != nil {
		return nil, err
	}
	return &ShardedSession{g}, nil
}

// resolveShardCount reconciles opts.Shards with the segmented store's fixed
// count: either may be left unset (0), but when both are present they must
// agree.
func resolveShardCount(opts SessionOptions) (int, error) {
	shards := opts.Shards
	if opts.Segmented != nil {
		if shards != 0 && shards != opts.Segmented.Shards() {
			return 0, fmt.Errorf("%w: SessionOptions.Shards = %d but the segmented log was created with %d shards",
				ErrBadConfig, shards, opts.Segmented.Shards())
		}
		shards = opts.Segmented.Shards()
	}
	if shards <= 0 {
		shards = 1
	}
	return shards, nil
}

// perShardWorkers divides the total pool width across shards, at least one
// worker each.
func perShardWorkers(parallelism, shards int) int {
	return max(poolWidth(parallelism)/shards, 1)
}

// subSessionOptions strips the shard-routing fields off the caller's options
// so each sub-session is an ordinary unsharded Session. Rand is cleared
// because the root seed was already read — shards get their substreams via
// forkShard, never by re-reading the caller's reader.
func subSessionOptions(opts SessionOptions, workers int) SessionOptions {
	opts.Shards = 0
	opts.Segmented = nil
	opts.Store = nil
	opts.Rand = nil
	opts.Parallelism = workers
	return opts
}

// Shards returns the shard count.
func (ss *ShardedSession) Shards() int { return len(ss.segs) }

// Shard returns the sub-session for shard i, for introspection (per-shard
// counters) and tests. It is pinned to shard i like any shard's session: it
// refuses a client ShardOf assigns elsewhere.
func (ss *ShardedSession) Shard(i int) *Session { return ss.segs[i] }

// ShardFor returns the shard that owns clientID under this session's shard
// count.
func (ss *ShardedSession) ShardFor(clientID int) int { return ShardOf(clientID, len(ss.segs)) }

// Submitted returns how many clients the current epoch has admitted across
// all shards.
func (ss *ShardedSession) Submitted() int {
	n := 0
	for _, s := range ss.segs {
		n += s.Submitted()
	}
	return n
}

// Accepted returns how many submissions hold a clean verdict across all
// shards.
func (ss *ShardedSession) Accepted() int {
	n := 0
	for _, s := range ss.segs {
		n += s.Accepted()
	}
	return n
}

// Rejected returns a snapshot of rejection reasons by client ID, across all
// shards. Shard assignment is injective per client, so the union is
// collision-free.
func (ss *ShardedSession) Rejected() map[int]error {
	out := make(map[int]error)
	for _, s := range ss.segs {
		for id, err := range s.Rejected() {
			out[id] = err
		}
	}
	return out
}

// Submit routes one client to its shard and admits it there: a batch of one
// through SubmitBatch, with exactly Session.Submit's verification,
// durability, and verdict semantics. The routing is lock-free — a pure hash
// of the client ID — so Submits for clients on different shards never
// serialize against each other; two submissions of the same ID always meet
// in the same shard, which is what keeps the duplicate guard airtight across
// the whole sharded board.
func (ss *ShardedSession) Submit(ctx context.Context, sub *ClientSubmission) error {
	verdicts, err := ss.SubmitBatch(ctx, []*ClientSubmission{sub})
	if err != nil {
		return err
	}
	return verdicts[0]
}

// ShardedResult is the outcome of finalizing a sharded epoch: the per-shard
// results in shard order, the combined release over all shards, and the
// merged digest that pins the whole epoch.
type ShardedResult struct {
	// Shards holds each shard's RunResult, indexed by shard.
	Shards []*RunResult
	// Release is the combined release: Raw[j] is the sum of every shard's
	// bin j, carrying Shards·K copies of Binomial(nb, ½) noise; Estimate
	// debiases accordingly and Stddev is sqrt(Shards·K·nb)/2.
	Release *Release
	// RejectedClients is the union of every shard's rejections.
	RejectedClients map[int]error
	// Digest is MergedTranscriptDigest over the shard transcripts.
	Digest []byte
}

// Transcripts returns the per-shard transcripts in shard (merge) order.
func (r *ShardedResult) Transcripts() []*Transcript {
	out := make([]*Transcript, len(r.Shards))
	for i, sr := range r.Shards {
		out[i] = sr.Transcript
	}
	return out
}

// Finalize closes the current epoch on every shard in parallel and merges
// the K sealed transcripts into one combined epoch result. The merge order
// is deterministic — shard index order, each shard's board in its own
// submission order — so the merged digest is reproducible by anyone holding
// the shard transcripts. A shard that was already sealed (recovered by
// ResumeShardedSession after a crash mid-finalize) contributes its sealed
// transcript as-is instead of being finalized twice. With a segmented store
// the merged digest is appended to the manifest, binding the K segment seals
// into one auditable epoch. A cancelled ctx reopens the session so Finalize
// can be retried (deterministically, to the same merged digest); see
// segmentedSession.finalize for the full retry contract.
func (ss *ShardedSession) Finalize(ctx context.Context) (*ShardedResult, error) {
	out := new(ShardedResult)
	var err error
	if out.Shards, out.RejectedClients, out.Digest, err = ss.finalize(ctx); err != nil {
		return nil, err
	}
	// The board's own sealed transcripts always merge.
	if out.Release, err = MergeReleases(ss.pub, out.Transcripts()); err != nil {
		return nil, err
	}
	return out, nil
}

// SealMerged is the one merge step that turns K sealed shards into one
// epoch, whether the shards are sub-sessions or cluster nodes: seal seals
// shards 0..shards-1 in parallel, their transcripts are kept in shard order
// — the merge order — and record is handed MergedTranscriptDigest over them
// to bind the epoch (a manifest append, a broadcast to every node). The
// lowest-index seal failure is returned, or ctx's error when it was
// cancelled meanwhile, and nothing is recorded; a record failure is
// returned as is.
func SealMerged(ctx context.Context, pub *Public, shards int, seal func(shard int) (*Transcript, error), record func(digest []byte) error) ([]*Transcript, []byte, error) {
	ts := make([]*Transcript, shards)
	err := forEach(ctx, shards, shards, func(i int) (err error) {
		ts[i], err = seal(i)
		return err
	})
	if err == nil {
		err = ctxErr(ctx)
	}
	if err != nil {
		return nil, nil, err
	}
	digest := MergedTranscriptDigest(pub, ts)
	if err := record(digest); err != nil {
		return nil, nil, err
	}
	return ts, digest, nil
}

// MergedTranscriptDigest pins a sharded epoch: for a single shard it is
// exactly TranscriptDigest of that shard's transcript (so an unsharded
// deployment and a Shards = 1 sharded one agree byte for byte), and for K
// shards it is SHA-256 over a domain tag, the shard count, and the K
// per-shard transcript digests in shard order. The shard order is the merge
// order, so two parties agree on the merged digest iff they agree on every
// bulletin-board byte of every shard.
func MergedTranscriptDigest(pub *Public, shards []*Transcript) []byte {
	ds := make([][]byte, len(shards))
	for i, t := range shards {
		ds[i] = TranscriptDigest(pub, t)
	}
	return mergedDigestFromShards(ds)
}

// mergedDigestFromShards folds already-computed per-shard transcript digests
// into the merged digest. The live tail uses it directly: its per-shard
// digests come from incremental seal verification, never from re-decoding
// transcripts.
func mergedDigestFromShards(digests [][]byte) []byte {
	if len(digests) == 1 {
		return digests[0]
	}
	h := sha256.New()
	h.Write([]byte("vdp/merged-transcript/1"))
	writeU32(h, uint32(len(digests)))
	for _, d := range digests {
		chunk(h, d)
	}
	return h.Sum(nil)
}

// checkShardAssignment verifies the shard map over a merged epoch's
// transcripts: every client sits on the shard ShardOf assigns it to, and no
// client appears on two shards.
func checkShardAssignment(shards []*Transcript) error {
	seen := make(map[int]int) // client ID -> shard
	for i, t := range shards {
		if t == nil {
			return fmt.Errorf("%w: shard %d transcript is missing", ErrAuditFail, i)
		}
		for _, cp := range t.Clients {
			if want := ShardOf(cp.ID, len(shards)); want != i {
				return fmt.Errorf("%w: client %d appears on shard %d but the shard map assigns it to shard %d",
					ErrAuditFail, cp.ID, i, want)
			}
			if prev, dup := seen[cp.ID]; dup {
				return fmt.Errorf("%w: client %d appears on shards %d and %d", ErrAuditFail, cp.ID, prev, i)
			}
			seen[cp.ID] = i
		}
	}
	return nil
}

// MergeReleases combines the per-shard transcript releases into the epoch's
// release, as ShardedSession.Finalize and the cluster router's merge both
// do: raw counts add, so the merged bin j carries Shards·K independent
// Binomial(nb, ½) noises; the debiasing mean and the standard deviation
// scale accordingly.
func MergeReleases(pub *Public, shards []*Transcript) (*Release, error) {
	m := pub.cfg.Bins
	rel := &Release{
		Raw:      make([]int64, m),
		Estimate: make([]float64, m),
		Stddev:   stddev(pub.cfg.Provers*len(shards), pub.nb),
	}
	mean := float64(len(shards)) * pub.NoiseMean()
	for i, t := range shards {
		if t == nil || t.Release == nil {
			return nil, fmt.Errorf("%w: shard %d has no release", ErrBadConfig, i)
		}
		if len(t.Release.Raw) != m {
			return nil, fmt.Errorf("%w: shard %d release has %d bins, want %d", ErrBadConfig, i, len(t.Release.Raw), m)
		}
		for j, raw := range t.Release.Raw {
			rel.Raw[j] += raw
		}
	}
	for j := range rel.Raw {
		rel.Estimate[j] = float64(rel.Raw[j]) - mean
	}
	return rel, nil
}

// AuditMerged audits a merged (sharded) epoch from its per-shard
// transcripts: every shard transcript is fully re-verified (exactly Audit),
// every client must live on the shard ShardOf assigns it to — so a curator
// cannot smuggle a client onto two shards or move one to a shard of its
// choosing — no client may appear twice across the board, and, when release
// is non-nil, the combined release must equal the recomputed merge of the
// shard releases. workers follows the AuditParallel convention (0 = all
// cores) and is the width given to each shard's audit in turn.
func AuditMerged(ctx context.Context, pub *Public, shards []*Transcript, release *Release, workers int) error {
	if len(shards) == 0 {
		return fmt.Errorf("%w: merged epoch has no shard transcripts", ErrAuditFail)
	}
	if err := checkShardAssignment(shards); err != nil {
		return err
	}
	for i, t := range shards {
		if err := auditParallel(ctx, pub, t, workers); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if release == nil {
		return nil
	}
	want, err := MergeReleases(pub, shards)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrAuditFail, err)
	}
	if len(release.Raw) != len(want.Raw) {
		return fmt.Errorf("%w: merged release has %d bins, shards produce %d", ErrAuditFail, len(release.Raw), len(want.Raw))
	}
	for j := range want.Raw {
		if release.Raw[j] != want.Raw[j] {
			return fmt.Errorf("%w: merged bin %d = %d, shard releases sum to %d",
				ErrAuditFail, j, release.Raw[j], want.Raw[j])
		}
	}
	return nil
}
