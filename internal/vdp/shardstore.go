package vdp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/store"
)

// Durable sharded bulletin board: the ShardedSession's integration with
// store.SegmentedLog.
//
// Each shard writes its ordinary single-session record stream
// (submission/verdict/seal/reset — see store.go) to its own segment, so one
// shard's fsyncs never serialize another shard's Submits. The manifest binds
// the segments together: at creation the store records the fixed shard
// count, and at every Finalize the session appends a merged-seal record
// holding MergedTranscriptDigest over the K segment seals. An epoch is a
// *merged* epoch — one auditable unit — exactly when that record exists and
// matches the digests recomputed from the segments.

// RecordMergedSeal is the manifest record kind a ShardedSession appends at
// Finalize: payload = shard count + MergedTranscriptDigest of the epoch's
// per-shard transcripts, in shard order. It extends the record-kind
// namespace of store.go; segment logs never carry it.
const RecordMergedSeal uint8 = 7

// encodeMergedSeal serializes a merged-seal manifest record body.
func encodeMergedSeal(shards int, digest []byte) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(shards))
	w.lpBytes(digest)
	return w.b
}

// decodeMergedSeal parses a merged-seal manifest record body.
func decodeMergedSeal(b []byte) (shards int, digest []byte, err error) {
	r := wireReader{b: b}
	r.version()
	shards = int(r.u32())
	digest = r.lpBytes()
	if err := r.finish(); err != nil {
		return 0, nil, err
	}
	if len(digest) != sha256.Size {
		return 0, nil, fmt.Errorf("vdp: merged seal carries a %d-byte digest, want %d", len(digest), sha256.Size)
	}
	return shards, digest, nil
}

// appendMergedSeal records a finalized merged epoch in the manifest.
func appendMergedSeal(seg *store.SegmentedLog, epoch, shards int, digest []byte) error {
	err := seg.Manifest().Append(&store.Record{Kind: RecordMergedSeal, Epoch: uint32(epoch), Payload: encodeMergedSeal(shards, digest)})
	if err != nil {
		return fmt.Errorf("vdp: manifest append: %w", err)
	}
	return nil
}

// readMergedSeals replays the manifest into epoch -> merged digest,
// enforcing the manifest grammar: the store's own records are skipped, every
// merged seal must carry the directory's shard count, no epoch may be sealed
// twice, and a kind no ShardedSession writes is rejected outright.
func readMergedSeals(seg *store.SegmentedLog) (map[int][]byte, error) {
	out := make(map[int][]byte)
	i := -1
	err := seg.Manifest().Replay(func(rec *store.Record) error {
		i++
		if rec.Kind >= store.KindSegmentedInit {
			return nil // store-reserved bookkeeping
		}
		if rec.Kind != RecordMergedSeal {
			return fmt.Errorf("vdp: manifest record %d has unknown kind %d", i, rec.Kind)
		}
		shards, digest, err := decodeMergedSeal(rec.Payload)
		if err != nil {
			return fmt.Errorf("vdp: manifest record %d: %w", i, err)
		}
		if shards != seg.Shards() {
			return fmt.Errorf("vdp: manifest record %d claims %d shards, directory holds %d", i, shards, seg.Shards())
		}
		epoch := int(rec.Epoch)
		if _, dup := out[epoch]; dup {
			return fmt.Errorf("vdp: manifest seals epoch %d twice", epoch)
		}
		out[epoch] = digest
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// segmentKind is the one thing the two segmented boards disagree on: how a
// client's records spread over the segments. Everything else — per-segment
// record grammar, manifest, merged seal — is shared, so resume, offline
// audit and live tail of both boards are the same composition of one
// single-log reader per segment, parameterized by this.
type segmentKind struct {
	unit string // what one segment is called in messages
	// pinned: the segments partition the clients by ShardOf and each segment
	// charges its own (a sharded session). Otherwise every client appears on
	// every segment and is admitted — and charged — on segment 0 alone (a
	// sketch session's rows).
	pinned bool
}

var (
	shardSegments = segmentKind{unit: "shard", pinned: true}
	rowSegments   = segmentKind{unit: "sketch row"}
)

// pin returns the shard coordinates segment i's grammar is pinned to.
func (k segmentKind) pin(i, n int) (shard, shards int) {
	if k.pinned {
		return i, n
	}
	return 0, 1
}

// budget returns the charging policy segment i's reader enforces.
func (k segmentKind) budget(i int, b *BudgetConfig) *BudgetConfig {
	if k.pinned || i == 0 {
		return b
	}
	return nil
}

// resumeSegments resumes one session per segment of a segmented board —
// each exactly as ResumeSession would (same roster, same board order, lost
// verdicts re-verified, the budget ledger's chain re-verified and its
// interrupted charges and refusals converged) — and reconciles them:
//
//   - A crash mid-Reset leaves some segments an epoch ahead; the laggards
//     are rolled forward (their Reset is completed), so all agree on the
//     current epoch again.
//   - A crash mid-Finalize leaves some segments sealed and others open; the
//     board resumes open (finalized = false), and its Finalize reuses the
//     sealed segments' transcripts while finalizing the rest — the merged
//     digest comes out identical to the uninterrupted run's.
//   - A crash after every segment sealed but before the manifest's
//     merged-seal record landed is healed here: the digest is recomputed
//     from the segment seals and the missing record is appended. A manifest
//     record that *disagrees* with the recomputed digest is tampering and
//     refuses to resume.
func resumeSegments(ctx context.Context, pub *Public, opts SessionOptions, root *randSource, n int, kind segmentKind) (subs []*Session, epoch int, finalized bool, err error) {
	seg := opts.Segmented
	per := perShardWorkers(opts.Parallelism, n)
	for i := 0; i < n; i++ {
		so := subSessionOptions(opts, per)
		so.Budget = kind.budget(i, opts.Budget)
		so.Store = seg.Board(i)
		shard, shards := kind.pin(i, n)
		s, err := resumeSessionFromSource(ctx, pub, so, root.forkShard(i, n), shard, shards)
		if err != nil {
			return nil, 0, false, fmt.Errorf("vdp: resuming %s %d: %w", kind.unit, i, err)
		}
		subs = append(subs, s)
		epoch = max(epoch, s.Epoch())
	}
	// Complete any Reset a crash interrupted: every segment must sit at the
	// same epoch before the board takes new submissions.
	for i, s := range subs {
		for s.Epoch() < epoch {
			if err := s.Reset(); err != nil {
				return nil, 0, false, fmt.Errorf("vdp: rolling %s %d forward to epoch %d: %w", kind.unit, i, epoch, err)
			}
		}
	}

	seals, err := readMergedSeals(seg)
	if err != nil {
		return nil, 0, false, err
	}
	for e := range seals {
		if e > epoch {
			return nil, 0, false, fmt.Errorf("vdp: manifest seals epoch %d but the segments have only reached epoch %d", e, epoch)
		}
	}
	want, merged := seals[epoch]
	for _, s := range subs {
		if s.Finalized() {
			continue
		}
		if merged {
			// The manifest claims the current epoch merged, yet a segment
			// holds no seal for it: a segment was truncated or swapped after
			// the fact. Refuse to build on doctored evidence.
			return nil, 0, false, fmt.Errorf("vdp: manifest seals epoch %d but not every segment is sealed", epoch)
		}
		return subs, epoch, false, nil
	}
	ts := make([]*Transcript, n)
	for i, s := range subs {
		if ts[i] = s.SealedTranscript(); ts[i] == nil {
			return nil, 0, false, fmt.Errorf("%w: %s %d is sealed but its transcript is not recoverable", ErrBadConfig, kind.unit, i)
		}
	}
	digest := MergedTranscriptDigest(pub, ts)
	if !merged {
		err = appendMergedSeal(seg, epoch, n, digest)
	} else if !bytes.Equal(want, digest) {
		err = fmt.Errorf("vdp: manifest merged seal for epoch %d disagrees with the segment seals", epoch)
	}
	return subs, epoch, true, err
}

// ResumeShardedSession reconstructs a sharded session from its segmented
// board log after a restart: every shard's segment is replayed and resumed
// exactly as ResumeSession would, pinned to the clients ShardOf assigns it,
// and the shards are reconciled into one session (see resumeSegments for the
// interrupted-Reset, interrupted-Finalize and missing-merged-seal cases).
//
// opts.Segmented must be the replayed segmented log; it receives all further
// records. opts.Rand must carry the original root seed for deterministic
// reproduction, exactly as with ResumeSession.
func ResumeShardedSession(ctx context.Context, pub *Public, opts SessionOptions) (*ShardedSession, error) {
	if opts.Segmented == nil {
		return nil, fmt.Errorf("%w: ResumeShardedSession needs SessionOptions.Segmented", ErrBadConfig)
	}
	if opts.Store != nil {
		return nil, fmt.Errorf("%w: a sharded session stores its board in SessionOptions.Segmented, not Store", ErrBadConfig)
	}
	shards, err := resolveShardCount(opts)
	if err != nil {
		return nil, err
	}
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	ss := &ShardedSession{pub: pub, opts: opts, root: root, resumed: true}
	var finalized bool
	if ss.shards, ss.epoch, finalized, err = resumeSegments(ctx, pub, opts, root, shards, shardSegments); err != nil {
		return nil, err
	}
	if finalized {
		ss.state = sessionFinalized
	}
	return ss, nil
}

// auditSegments audits one epoch across the per-segment board logs of a
// segmented or multi-node board, in segment order: each log is audited
// exactly as AuditLog audits a single board log — grammar over the whole
// log, seal cross-checked against the log's own arrival records, sealed
// transcript fully re-verified — under the roster rule of its kind, and the
// merged digest over the recovered transcripts is returned. Shards pin every
// log's grammar to its ShardOf slice (a client on a foreign shard fails at
// its submission record; on two shards it cannot be). Sketch rows check the
// admission gate instead: row 0 admits first, so a client a later row seats
// that row 0 does not is a forged roster.
func auditSegments(ctx context.Context, pub *Public, logs []store.BoardLog, epoch, workers int, kind segmentKind) ([]byte, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("%w: no board logs to audit", ErrAuditFail)
	}
	ts := make([]*Transcript, len(logs))
	for i, lg := range logs {
		shard, shards := kind.pin(i, len(logs))
		t, err := auditLogEpoch(ctx, pub, lg, epoch, workers, shard, shards)
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", kind.unit, i, err)
		}
		ts[i] = t
	}
	if !kind.pinned {
		first := make(map[int]bool, len(ts[0].Clients))
		for _, cp := range ts[0].Clients {
			first[cp.ID] = true
		}
		for i := 1; i < len(ts); i++ {
			for _, cp := range ts[i].Clients {
				if !first[cp.ID] {
					return nil, fmt.Errorf("%w: %s %d seats client %d, which %s 0 never admitted", ErrAuditFail, kind.unit, i, cp.ID, kind.unit)
				}
			}
		}
	}
	return MergedTranscriptDigest(pub, ts), nil
}

// auditSegmented is auditSegments over one directory: the epoch (< 0 = the
// latest merged-sealed one) and the digest to match come from the manifest.
func auditSegmented(ctx context.Context, pub *Public, seg *store.SegmentedLog, epoch, workers int, kind segmentKind) error {
	seals, err := readMergedSeals(seg)
	if err != nil {
		return err
	}
	if epoch < 0 {
		for e := range seals {
			epoch = max(epoch, e)
		}
		if epoch < 0 {
			return fmt.Errorf("%w: manifest holds no merged-sealed epoch", ErrAuditFail)
		}
	}
	want, ok := seals[epoch]
	if !ok {
		return fmt.Errorf("%w: manifest holds no merged seal for epoch %d", ErrAuditFail, epoch)
	}
	logs := make([]store.BoardLog, seg.Shards())
	for i := range logs {
		logs[i] = seg.Segment(i)
	}
	got, err := auditSegments(ctx, pub, logs, epoch, workers, kind)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: epoch %d merged digest disagrees with the manifest's merged seal", ErrAuditFail, epoch)
	}
	return nil
}

// AuditSegmentedLog audits a merged (sharded) epoch offline, from the
// segmented board log alone: each shard's segment is audited exactly as
// AuditLog audits a single board log, pinned to the shard map (every client
// on the shard ShardOf assigns it, no client on two shards), and the merged
// digest recomputed from the K segment seals must equal the manifest's
// merged-seal record. epoch < 0 selects the latest merged-sealed epoch.
// workers follows the AuditParallel convention.
func AuditSegmentedLog(ctx context.Context, pub *Public, seg *store.SegmentedLog, epoch, workers int) error {
	return auditSegmented(ctx, pub, seg, epoch, workers, shardSegments)
}
