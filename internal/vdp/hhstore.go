package vdp

import (
	"context"

	"repro/internal/sketch"
	"repro/internal/store"
)

// Durable sketch sessions: recovery, offline audit, and live tailing over a
// store.SegmentedLog with one segment per count-min row. The segment
// machinery is the sharded session's — same merged-seal manifest grammar,
// same per-segment record streams — but the roster discipline differs: a
// sharded deployment pins each client to exactly one shard (ShardOf),
// while a sketch puts every client on every row. The audit therefore swaps
// the shard-assignment check for the row-subset invariant (row 0 gates
// admission, so no row may seat a client row 0 does not), and the live tail
// runs its per-segment auditors unpinned. Budget charges appear on row 0's
// segment only; the other rows' ledgers stay empty by construction.

// ResumeSketchSession reconstructs a sketch session from its segmented
// board log after a restart. Every row's segment is replayed and resumed
// exactly as ResumeSession would — including the row-0 budget ledger — and
// the rows are then reconciled exactly as ResumeShardedSession reconciles
// shards (see segmentedSession.reconcile). opts.Rand must carry the original
// root seed.
func ResumeSketchSession(ctx context.Context, pub *Public, layout sketch.Layout, opts SessionOptions) (*SketchSession, error) {
	return openSketchSession(ctx, pub, layout, opts, true)
}

// AuditSketchLog audits a sketch epoch offline, from the segmented board
// log alone: each row's segment is audited exactly as AuditLog audits a
// single board log (sealed transcript re-verified, arrival records
// cross-checked, budget-charge chain replayed), the row rosters must obey
// the admission gate (every client row r > 0 seats also sits on row 0), and
// the merged digest recomputed from the row seals must equal the manifest's
// merged-seal record. epoch < 0 selects the latest merged epoch; workers
// follows the AuditParallel convention.
func AuditSketchLog(ctx context.Context, pub *Public, layout sketch.Layout, seg *store.SegmentedLog, epoch, workers int) error {
	if err := validateSketchOptions(pub, layout, SessionOptions{Segmented: seg}); err != nil {
		return err
	}
	return auditSegmented(ctx, pub, seg, epoch, workers, rowSegments)
}

// TailSketchLog opens a live audit tail over a sketch session's segmented
// board log: the merged tail with one TailAuditor per row (unpinned —
// sketch clients legally appear on every row), drained together by Poll,
// and the manifest as its seal lookup. opts.Budget applies to row 0's
// auditor only; the other rows carry no charges, and any charge record
// appearing there fails their chain replay at the unknown-client check.
func TailSketchLog(pub *Public, layout sketch.Layout, seg *store.SegmentedLog, opts TailOptions) (*SegmentedTail, error) {
	if err := validateSketchOptions(pub, layout, SessionOptions{Segmented: seg}); err != nil {
		return nil, err
	}
	return tailSegments(pub, seg, opts, rowSegments)
}
