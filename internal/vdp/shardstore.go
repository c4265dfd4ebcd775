package vdp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/store"
	"repro/internal/wire"
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
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(shards))
	w.Blob(digest)
	return w.Bytes()
}

// decodeMergedSeal parses a merged-seal manifest record body.
func decodeMergedSeal(b []byte) (shards int, digest []byte, err error) {
	r := versioned(b)
	shards = int(r.U32())
	digest = r.Blob()
	if err := r.Finish(); err != nil {
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

// mergedSealRule is the manifest grammar, one rule set for recovery and the
// live tail: store bookkeeping is skipped, a kind no segmented session writes
// is refused, every merged seal must carry the board's shard count, and no
// epoch is sealed twice. A legal merged seal is recorded in seals; a refusal
// says why, and each caller prefixes the record's position its own way.
func mergedSealRule(rec *store.Record, shards int, seals map[int][]byte) error {
	if rec.Kind >= store.KindSegmentedInit {
		return nil // store-reserved bookkeeping
	}
	if rec.Kind != RecordMergedSeal {
		return fmt.Errorf("unknown kind %d", rec.Kind)
	}
	n, digest, err := decodeMergedSeal(rec.Payload)
	if err != nil {
		return err
	}
	if n != shards {
		return fmt.Errorf("claims %d shards, the board has %d", n, shards)
	}
	epoch := int(rec.Epoch)
	if _, dup := seals[epoch]; dup {
		return fmt.Errorf("seals epoch %d twice", epoch)
	}
	seals[epoch] = digest
	return nil
}

// readMergedSeals replays the manifest into epoch -> merged digest under
// mergedSealRule.
func readMergedSeals(seg *store.SegmentedLog) (map[int][]byte, error) {
	out := make(map[int][]byte)
	i := -1
	err := seg.Manifest().Replay(func(rec *store.Record) error {
		i++
		if err := mergedSealRule(rec, seg.Shards(), out); err != nil {
			return fmt.Errorf("vdp: manifest record %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// auditSegments audits one epoch across the per-segment board logs of a
// segmented or multi-node board, in segment order: each log is audited
// exactly as AuditLog audits a single board log — grammar over the whole
// log, seal cross-checked against the log's own arrival records, every
// verdict and the seal verified — under the roster rule of its kind, and
// the merged digest over the verified per-log digests is returned. Shards
// pin every log's grammar to its ShardOf slice (a client on a foreign shard
// fails at its submission record; on two shards it cannot be). Sketch rows
// check the admission gate on the sealed rosters instead: row 0 admits
// first, so a client a later row seats that row 0 does not is a forged
// roster.
func auditSegments(ctx context.Context, pub *Public, logs []store.BoardLog, epoch, workers int, kind segmentKind) ([]byte, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("%w: no board logs to audit", ErrAuditFail)
	}
	digests := make([][]byte, len(logs))
	admitted := make(map[int]bool) // row 0's sealed roster
	for i, lg := range logs {
		shard, shards := kind.pin(i, len(logs))
		digest, roster, err := auditLogEpoch(ctx, pub, lg, epoch, workers, shard, shards)
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", kind.unit, i, err)
		}
		digests[i] = digest
		for _, id := range roster {
			if i == 0 {
				admitted[id] = true
			} else if !kind.pinned && !admitted[id] {
				return nil, fmt.Errorf("%w: %s %d seats client %d, which %s 0 never admitted", ErrAuditFail, kind.unit, i, id, kind.unit)
			}
		}
	}
	return mergedDigestFromShards(digests), nil
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
