package vdp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"sync"

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

// MergedSeals is the one merged-seal book: epoch → merged digest for a
// board of K shards, optionally backed by the log it appends to. Every
// holder of merged seals keeps them here — a segmented board's manifest, a
// cluster node's sidecar, a standby's mirror of that sidecar, the live
// tails — under one rule: a record must be a RecordMergedSeal whose body
// decodes with a 32-byte digest and names the board's shard count. A second
// seal for an epoch with the same digest is a no-op — an honest retry of an
// append that reported failure after it landed leaves exactly that — and
// one with a different digest is refused: two merged digests for one epoch
// is a forked merge.
type MergedSeals struct {
	shards int
	log    store.Log // nil keeps the book in memory

	mu    sync.Mutex
	seals map[int][]byte
}

// OpenMergedSeals opens the book of a shards-wide board over log, replaying
// every record under the rule; a nil log keeps the book in memory.
func OpenMergedSeals(log store.Log, shards int) (*MergedSeals, error) {
	return openMergedSeals(log, shards, false)
}

// openMergedSeals replays log into a fresh book. A manifest's
// store-reserved bookkeeping is skipped.
func openMergedSeals(log store.Log, shards int, manifest bool) (*MergedSeals, error) {
	b := &MergedSeals{shards: shards, log: log, seals: make(map[int][]byte)}
	if log == nil {
		return b, nil
	}
	var recs []*store.Record
	if err := log.Replay(func(rec *store.Record) error { recs = append(recs, rec); return nil }); err != nil {
		return nil, err
	}
	fresh, at, err := b.admit(recs, manifest)
	if err != nil {
		what := "merged-seal log"
		if manifest {
			what = "manifest"
		}
		return nil, fmt.Errorf("vdp: %s record %d: %w", what, at, err)
	}
	b.seals = fresh
	return b, nil
}

// admit is the rule: every record of recs, in order, must be a legal merged
// seal that agrees with what the book and the records before it hold for
// its epoch. It returns the seals recs add to the book — a same-digest
// repeat adds none — and applies nothing, or the index of the first record
// refused and why; a manifest's store-reserved bookkeeping is skipped.
// Callers hold b.mu, or own b.
func (b *MergedSeals) admit(recs []*store.Record, manifest bool) (fresh map[int][]byte, at int, err error) {
	fresh = make(map[int][]byte)
	for i, rec := range recs {
		if manifest && rec.Kind >= store.KindSegmentedInit {
			continue
		}
		if rec.Kind != RecordMergedSeal {
			return nil, i, fmt.Errorf("unknown kind %d", rec.Kind)
		}
		n, digest, err := decodeMergedSeal(rec.Payload)
		if err != nil {
			return nil, i, err
		}
		if n != b.shards {
			return nil, i, fmt.Errorf("claims %d shards, the board has %d", n, b.shards)
		}
		epoch := int(rec.Epoch)
		prev, held := b.seals[epoch]
		if !held {
			prev, held = fresh[epoch]
		}
		if held && !bytes.Equal(prev, digest) {
			return nil, i, fmt.Errorf("seals epoch %d twice with different digests", epoch)
		}
		if !held {
			fresh[epoch] = digest
		}
	}
	return fresh, 0, nil
}

// Record seals epoch with a merged digest over shards shards, appending the
// record to the book's log unless the book already holds that very seal. A
// failed append records nothing, so a retry appends again.
func (b *MergedSeals) Record(epoch, shards int, digest []byte) error {
	rec := &store.Record{Kind: RecordMergedSeal, Epoch: uint32(epoch), Payload: encodeMergedSeal(shards, digest)}
	b.mu.Lock()
	defer b.mu.Unlock()
	fresh, _, err := b.admit([]*store.Record{rec}, false)
	if err != nil {
		return fmt.Errorf("vdp: merged seal for epoch %d: %w", epoch, err)
	}
	if len(fresh) == 0 {
		return nil // already held
	}
	return b.write([]*store.Record{rec}, fresh)
}

// Mirror appends recs verbatim — a standby's copy of its primary's log,
// repeats included — once all of them have passed the rule, so a batch
// holding one bad record is refused whole before anything is appended.
func (b *MergedSeals) Mirror(recs []*store.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	fresh, at, err := b.admit(recs, false)
	if err != nil {
		return fmt.Errorf("vdp: mirrored merged-seal record %d: %w", at, err)
	}
	return b.write(recs, fresh)
}

// write appends admitted records to the log in one sync, then books fresh.
// Callers hold b.mu.
func (b *MergedSeals) write(recs []*store.Record, fresh map[int][]byte) error {
	if b.log != nil {
		for _, rec := range recs {
			if err := b.log.AppendNoSync(rec); err != nil {
				return fmt.Errorf("vdp: merged-seal append: %w", err)
			}
		}
		if err := b.log.Sync(); err != nil {
			return fmt.Errorf("vdp: merged-seal sync: %w", err)
		}
	}
	maps.Copy(b.seals, fresh)
	return nil
}

// Get returns the merged digest the book holds for epoch; epoch < 0 asks for
// the latest sealed epoch. ok is false when there is none.
func (b *MergedSeals) Get(epoch int) (sealed int, digest []byte, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if epoch < 0 {
		for e := range b.seals {
			epoch = max(epoch, e)
		}
	}
	digest, ok = b.seals[epoch]
	return epoch, digest, ok
}

// auditMerged is the one merged-epoch audit, over the segments of one
// directory or the nodes of a cluster alike: seal looks the epoch's recorded
// merged seal up (epoch < 0: the newest), each log is audited exactly as
// AuditLog audits a single board log — grammar over the whole log, seal
// cross-checked against the log's own arrival records, every verdict and
// the seal verified — by one auditor of a merged reader, pinned as its kind
// pins it (a client on a foreign shard fails at its submission record; on
// two shards it cannot be), and the reader's one merge check (VerifyMerged)
// holds the sealed rosters to the kind's rule and the merged digest to the
// seal. It returns the audited epoch and its digest.
func auditMerged(ctx context.Context, pub *Public, logs []Replayer, epoch, workers int, kind segmentKind, seal func(epoch int) (int, []byte, error)) (int, []byte, error) {
	epoch, want, err := seal(epoch)
	if err != nil {
		return 0, nil, err
	}
	st, err := newSegmentedTail(pub, len(logs), func(int) ([]byte, bool, error) { return want, true, nil },
		TailOptions{Workers: workers}, kind, auditWindow)
	if err != nil {
		return 0, nil, err
	}
	for i, a := range st.shards {
		if err := a.audit(ctx, logs[i], epoch); err != nil {
			return 0, nil, fmt.Errorf("%s %d: %w", kind.unit, i, err)
		}
	}
	digest, _, err := st.VerifyMerged(epoch)
	if err != nil {
		return 0, nil, err
	}
	return epoch, digest, nil
}

// auditSegmented is auditMerged over one directory, whose manifest holds
// the merged seals.
func auditSegmented(ctx context.Context, pub *Public, seg *store.SegmentedLog, epoch, workers int, kind segmentKind) error {
	seals, err := openMergedSeals(seg.Manifest(), seg.Shards(), true)
	if err != nil {
		return err
	}
	logs := make([]Replayer, seg.Shards())
	for i := range logs {
		logs[i] = seg.Segment(i)
	}
	_, _, err = auditMerged(ctx, pub, logs, epoch, workers, kind, func(epoch int) (int, []byte, error) {
		sealed, digest, ok := seals.Get(epoch)
		switch {
		case !ok && epoch < 0:
			return 0, nil, fmt.Errorf("%w: manifest holds no merged-sealed epoch", ErrAuditFail)
		case !ok:
			return 0, nil, fmt.Errorf("%w: manifest holds no merged seal for epoch %d", ErrAuditFail, epoch)
		}
		return sealed, digest, nil
	})
	return err
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
