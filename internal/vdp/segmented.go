package vdp

import (
	"context"
	"fmt"
	"maps"
	"sync"

	"repro/internal/store"
)

// The segmented-session core: K sub-Sessions plus the manifest that binds
// their seals into one epoch. ShardedSession and SketchSession are both this
// core — they differ only in how a client's submissions spread over the
// segments (the segmentKind) and in what a finalized epoch assembles (a
// merged histogram release, a count-min sketch). Everything an epoch's
// lifecycle consists of lives here exactly once: construction of fresh and
// resumed boards, finalize (SealMerged, the merge step the cluster router
// takes too, over Session.Seal) with its retry/consumed rules, Reset,
// Compact, and healing a missing merged seal. The merged reader
// (SegmentedTail, which auditMerged drains offline and tailSegments opens
// live) is the read-side counterpart, parameterised by the same kinds.

// segmentKind is the one thing the two segmented boards disagree on: how a
// client's records spread over the segments. Everything else — per-segment
// record grammar, manifest, merged seal, epoch lifecycle — is shared, so
// session, resume, offline audit and live tail of both boards are the same
// composition of one single-log machine per segment, parameterized by this.
type segmentKind struct {
	unit    string // what one segment is called in messages
	session string // the exported session type, for constructor hints
	// pinned: the segments partition the clients by ShardOf and each segment
	// charges its own (a sharded session). Otherwise every client appears on
	// every segment and is admitted — and charged — on segment 0 alone (a
	// sketch session's rows).
	pinned bool
}

var (
	shardSegments = segmentKind{unit: "shard", session: "ShardedSession", pinned: true}
	rowSegments   = segmentKind{unit: "sketch row", session: "SketchSession"}
)

// pin returns the shard coordinates segment i's session and grammar are
// pinned to.
func (k segmentKind) pin(i, n int) (shard, shards int) {
	if k.pinned {
		return i, n
	}
	return 0, 1
}

// checkRosters applies the kind's roster rule to a merged epoch's sealed
// rosters (client IDs), given in segment order, once every segment has been
// verified on its own. Shards need none here: each segment's grammar pins
// its clients to their ShardOf slice, so a client on a foreign shard fails
// at its submission record. Sketch rows check the admission gate: row 0
// admits first, so a client a later row seats that row 0 does not is a
// forged roster. The offline audit and the live tail both apply it.
func (k segmentKind) checkRosters(rosters [][]int) error {
	if k.pinned || len(rosters) == 0 {
		return nil
	}
	admitted := make(map[int]bool, len(rosters[0]))
	for _, id := range rosters[0] {
		admitted[id] = true
	}
	for i := 1; i < len(rosters); i++ {
		for _, id := range rosters[i] {
			if !admitted[id] {
				return fmt.Errorf("%w: %s %d seats client %d, which %s 0 never admitted", ErrAuditFail, k.unit, i, id, k.unit)
			}
		}
	}
	return nil
}

// budget returns the charging policy segment i enforces.
func (k segmentKind) budget(i int, b *BudgetConfig) *BudgetConfig {
	if k.pinned || i == 0 {
		return b
	}
	return nil
}

// segmentedSession is the lifecycle core embedded by ShardedSession and
// SketchSession. Admission is not here: routing a submission to its segment
// (ShardOf) or fanning a contribution over all of them (row 0 first) is the
// part that differs, and goes straight to the sub-sessions. It keeps no
// lifecycle state of its own: like the cluster router over its nodes, it
// reads the epoch off its segments and whether that epoch is finalized off
// them and its merged-seal book.
type segmentedSession struct {
	pub   *Public
	kind  segmentKind
	seg   *store.SegmentedLog // nil keeps the board in memory
	segs  []*Session
	seals *MergedSeals // the manifest's merged seals

	mu sync.Mutex // serializes Finalize, Reset and Compact
}

// openSegmented builds an n-segment board of the given kind. Fresh
// (resume = false), every sub-session starts empty on its forkShard(i, n)
// substream of the root seed and a durable store must hold no records yet.
// Resumed, every sub-session is recovered from its segment exactly as
// ResumeSession would — same roster, same board order, lost verdicts
// re-verified, the budget ledger's chain re-verified — and the segments are
// then reconciled into one epoch (see reconcile). opts.Rand is read once;
// opts.Parallelism is divided evenly across the segments.
func openSegmented(ctx context.Context, pub *Public, opts SessionOptions, n int, kind segmentKind, resume bool) (*segmentedSession, error) {
	if err := opts.Budget.validate(); err != nil {
		return nil, err
	}
	switch {
	case resume && opts.Segmented == nil:
		return nil, fmt.Errorf("%w: Resume%s needs SessionOptions.Segmented", ErrBadConfig, kind.session)
	case !resume && opts.Segmented != nil && !opts.Segmented.Empty():
		return nil, fmt.Errorf("%w: segmented board log already holds records; use Resume%s to recover it", ErrBadConfig, kind.session)
	}
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	g := &segmentedSession{pub: pub, kind: kind, seg: opts.Segmented, segs: make([]*Session, n)}
	per := perShardWorkers(opts.Parallelism, n)
	sos, srcs := make([]SessionOptions, n), make([]*randSource, n)
	for i := range sos {
		sos[i] = subSessionOptions(opts, per)
		sos[i].Budget = kind.budget(i, opts.Budget)
		if g.seg != nil {
			sos[i].Store = g.seg.Board(i)
		}
		srcs[i] = root.forkShard(i, n)
	}
	if !resume {
		for i := range g.segs {
			shard, shards := kind.pin(i, n)
			g.segs[i] = newSessionFromSource(pub, sos[i], srcs[i], shard, shards)
		}
	} else {
		// The segments resume concurrently, each on its share of the pool,
		// and the lowest-index failure is reported, as a one-by-one loop
		// would. Unlike that loop, a refused resume may already have let
		// another segment append the records a successful resume writes
		// (recovered verdicts, completed charges); they are what that
		// segment's next resume would append anyway.
		errs := make([]error, n)
		_ = forEach(nil, n, n, func(i int) error {
			shard, shards := kind.pin(i, n)
			g.segs[i], errs[i] = resumeSessionFromSource(ctx, pub, sos[i], srcs[i], shard, shards)
			return nil
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("vdp: resuming %s %d: %w", kind.unit, i, err)
			}
		}
	}
	var manifest store.Log
	if g.seg != nil {
		manifest = g.seg.Manifest()
	}
	if g.seals, err = openMergedSeals(manifest, n, true); err == nil && resume {
		err = g.reconcile()
	}
	return g, err
}

// reconcile turns K independently resumed segments back into one epoch:
//
//   - A crash mid-Reset leaves some segments an epoch ahead; the laggards
//     are rolled forward (their Reset is completed), so all agree on the
//     current epoch again.
//   - A crash mid-Finalize leaves some segments sealed and others open; the
//     board resumes open, and its Finalize reuses the sealed segments'
//     transcripts while finalizing the rest — the merged digest comes out
//     identical to the uninterrupted run's.
//   - A crash after every segment sealed but before the manifest's
//     merged-seal record landed is healed here: the digest is recomputed
//     from the segment seals and the missing record is appended. A manifest
//     record that *disagrees* with the recomputed digest is tampering and
//     refuses to resume (the merged-seal book refuses the second digest).
func (g *segmentedSession) reconcile() error {
	epoch := 0
	for _, s := range g.segs {
		epoch = max(epoch, s.Epoch())
	}
	for i, s := range g.segs {
		for s.Epoch() < epoch {
			if err := s.Reset(); err != nil {
				return fmt.Errorf("vdp: rolling %s %d forward to epoch %d: %w", g.kind.unit, i, epoch, err)
			}
		}
	}
	if e, _, ok := g.seals.Get(-1); ok && e > epoch {
		return fmt.Errorf("vdp: manifest seals epoch %d but the segments have only reached epoch %d", e, epoch)
	}
	_, _, merged := g.seals.Get(epoch)
	ts := g.sealedTranscripts(epoch)
	switch {
	case ts == nil && merged:
		// The manifest claims the current epoch merged, yet a segment holds
		// no seal for it: a segment was truncated or swapped after the fact.
		// Refuse to build on doctored evidence.
		return fmt.Errorf("vdp: manifest seals epoch %d but not every segment is sealed", epoch)
	case ts == nil:
		return nil
	}
	err := g.seals.Record(epoch, len(g.segs), MergedTranscriptDigest(g.pub, ts))
	if err != nil && merged {
		return fmt.Errorf("vdp: manifest merged seal for epoch %d disagrees with the segment seals: %w", epoch, err)
	}
	return err
}

// sealedTranscripts returns epoch's kept transcripts, in segment order, when
// every segment has sealed it; nil while any segment is still open, already
// advanced, or was consumed by a protocol error.
func (g *segmentedSession) sealedTranscripts(epoch int) []*Transcript {
	ts := make([]*Transcript, len(g.segs))
	for i, s := range g.segs {
		if s.Epoch() != epoch || !s.Finalized() {
			return nil
		}
		if ts[i] = s.SealedTranscript(); ts[i] == nil {
			return nil
		}
	}
	return ts
}

// Epoch returns the current epoch number: the one every segment has
// reached (a turnover that failed part-way leaves some segments ahead).
func (g *segmentedSession) Epoch() int {
	epoch := g.segs[0].Epoch()
	for _, s := range g.segs[1:] {
		epoch = min(epoch, s.Epoch())
	}
	return epoch
}

// Finalized reports whether the current epoch is closed: the merged-seal
// book holds its seal, or a segment was consumed by a protocol error, which
// spends the epoch. Reset and Compact reopen it.
func (g *segmentedSession) Finalized() bool {
	epoch := g.Epoch()
	if _, _, ok := g.seals.Get(epoch); ok {
		return true
	}
	for _, s := range g.segs {
		if s.Epoch() == epoch && s.Finalized() && s.SealedTranscript() == nil {
			return true
		}
	}
	return false
}

// admitting refuses admissions into a finalized epoch. It is a courtesy
// check for fan-out admission (a contribution must not land on some rows of
// a closed epoch); the sub-sessions' own state is what actually fences.
func (g *segmentedSession) admitting() error {
	if g.Finalized() {
		return fmt.Errorf("%w: session is %s", ErrBadConfig, sessionFinalized)
	}
	return nil
}

// finalize closes the current epoch through SealMerged: every segment seals
// in parallel (Session.Seal: a segment already sealed — by an earlier
// attempt, or before a crash — contributes its kept transcript as-is), the
// results come back in segment order, the merge order, with the union of the
// segments' rejections, and the merged digest is recorded in the book (with
// a durable store, appended to the manifest).
//
// Retry contract. A segment that could not complete — cancelled mid-stage,
// or its seal append failed — reopens itself (Session.Finalize's contract),
// and no merged seal is recorded, so the epoch stays open and a retry
// re-merges to the identical digest from the sealed segments' kept
// transcripts. A segment consumed by a protocol error can never merge, so
// its epoch is spent whatever state its siblings are in. A failed manifest
// append also leaves the epoch open: the retry only re-attempts the append
// (Reset, Compact and resume heal the same gap, so choosing any of them
// over a retry cannot orphan the epoch).
func (g *segmentedSession) finalize(ctx context.Context) (results []*RunResult, rejected map[int]error, digest []byte, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.Finalized() {
		return nil, nil, nil, fmt.Errorf("%w: session is %s", ErrBadConfig, sessionFinalized)
	}
	epoch := g.Epoch()
	results = make([]*RunResult, len(g.segs))
	_, digest, err = SealMerged(ctx, g.pub, len(g.segs), func(i int) (*Transcript, error) {
		res, err := g.segs[i].Seal(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", g.kind.unit, i, err)
		}
		results[i] = res
		return res.Transcript, nil
	}, func(digest []byte) error {
		return g.seals.Record(epoch, len(g.segs), digest)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rejected = make(map[int]error)
	for _, res := range results {
		maps.Copy(rejected, res.RejectedClients)
	}
	return results, rejected, digest, nil
}

// Reset reopens the session for the next epoch: every segment advances its
// epoch and the merged epoch counter moves with them. Resetting an open
// epoch discards its pending submissions.
func (g *segmentedSession) Reset() error {
	return g.advance("resetting", (*Session).Reset, false)
}

// Compact closes a finalized epoch with per-segment snapshot records instead
// of Resets: each segment pins its sealed transcript's digest in its own log
// (the manifest's merged seal already binds them together), so a resume
// boots every segment from its snapshot. A segment whose sealed transcript
// is unrecoverable cannot be compacted — the error names it, and Reset
// remains the way to close such an epoch.
func (g *segmentedSession) Compact() error {
	return g.advance("compacting", (*Session).Compact, true)
}

// advance is the epoch turnover behind Reset and Compact. A durable epoch
// whose segments all sealed but whose merged-seal manifest record never
// landed (a failed append, followed by the caller choosing turnover over a
// Finalize retry) is healed first — otherwise advancing past it would orphan
// a fully-sealed epoch no auditor could ever accept. Segments an earlier,
// partially failed turnover already advanced are skipped, so a retry cannot
// double-advance them.
func (g *segmentedSession) advance(verb string, step func(*Session) error, sealedOnly bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if sealedOnly && !g.Finalized() {
		return fmt.Errorf("%w: only a finalized epoch can be compacted", ErrBadConfig)
	}
	epoch := g.Epoch()
	if err := g.healMergedSeal(epoch); err != nil {
		return err
	}
	for i, s := range g.segs {
		if s.Epoch() > epoch {
			continue
		}
		if err := step(s); err != nil {
			return fmt.Errorf("vdp: %s %s %d: %w", verb, g.kind.unit, i, err)
		}
	}
	return nil
}

// healMergedSeal records epoch's missing merged seal when every segment is
// sealed with its transcript kept — the state a failed manifest append
// leaves behind. A no-op when the epoch is not fully sealed (nothing to
// bind), was consumed by a protocol error (no transcripts to bind), or is
// already merged-sealed.
func (g *segmentedSession) healMergedSeal(epoch int) error {
	ts := g.sealedTranscripts(epoch)
	if ts == nil {
		return nil
	}
	if _, _, ok := g.seals.Get(epoch); ok {
		return nil
	}
	return g.seals.Record(epoch, len(g.segs), MergedTranscriptDigest(g.pub, ts))
}
