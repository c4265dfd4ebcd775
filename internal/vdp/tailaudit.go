package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/store"
)

// Live audit tail: the analytical half of the board split. AuditLog
// verifies a sealed epoch after the fact, while a TailAuditor follows the
// board log as it is written, spending the per-client verification work at
// arrival time. Both are the same reader: the boardGrammar (grammar.go) for
// the record grammar, the roster and the seal-vs-roster cross-check, and the
// epochVerifier (epochverifier.go) for the cryptography — every arrival's
// Σ-OR proof decided in windows, every logged verdict cross-checked against
// it, and the running Line-13 client product, so that at seal time the
// remaining work is O(M·nb·K), independent of how many clients the epoch
// admitted. The tail only decides sooner: a verdict is judged at its own
// record. Any third party holding the log can follow the bulletin board
// live, which is the paper's public-verifiability story made continuous.

// TailOptions configures a live audit tail.
type TailOptions struct {
	// Workers is the verification pool width (0 = GOMAXPROCS): each
	// window's batched Σ-OR check — the derived commitments and the
	// multi-exponentiation — and the seal-time per-prover checks run on
	// it. Records are decoded by the goroutine that feeds them.
	Workers int
	// Budget, when set, makes the tail enforce the session's charging policy
	// in addition to replaying the charge chain: every admitted client must
	// be charged EpochCost at admission, budget refusals must be genuine
	// (the replayed spend really cannot afford another epoch), and no epoch
	// seals with an uncharged roster client. Without it the tail still
	// verifies chain integrity — any dropped, injected, or reordered charge
	// is flagged — but cannot judge whether the policy itself was honoured.
	Budget *BudgetConfig
}

// TailAuditor incrementally audits one board log (or one shard segment).
// Records are consumed in append order — via Feed, or by Poll draining the
// store.Tailer it was opened with — and every grammar violation, forged
// verdict, or seal divergence is reported at the first divergent record,
// with its offset. Audit failures are sticky: a tail that has flagged its
// log refuses to consume further records, exactly like a human auditor who
// stops trusting a ledger at the first bad line.
//
// A TailAuditor is safe for concurrent use, though records must arrive in
// log order (one goroutine per log is the natural shape).
type TailAuditor struct {
	mu     sync.Mutex
	tailer store.Tailer
	err    error

	g       *boardGrammar
	v       *epochVerifier
	recIdx  int                 // records consumed, all epochs
	history map[int]sealedEpoch // by epoch, every epoch verified sealed
}

// sealedEpoch is what a tail keeps of an epoch it has verified sealed.
type sealedEpoch struct {
	digest []byte
	roster []int // the sealed roster's client IDs, board order
}

// NewTailAuditor creates a live auditor for a single board log, shard 0 of
// 1; feed it records directly.
func NewTailAuditor(pub *Public, opts TailOptions) *TailAuditor {
	return newTailAuditor(pub, opts, shardSegments, 0, 1, nil)
}

// newTailAuditor creates a live auditor for segment i of an n-segment board
// of the given kind, under the kind's pin (so a curator cannot smuggle a
// client onto a shard of its choosing) and charging policy, that drains
// tailer on Poll and closes it on Close. Segment 0 of 1 is a plain log.
func newTailAuditor(pub *Public, opts TailOptions, kind segmentKind, i, n int, tailer store.Tailer) *TailAuditor {
	shard, shards := kind.pin(i, n)
	g := newBoardGrammar(pub, kind.budget(i, opts.Budget), true, shard, shards)
	return &TailAuditor{
		tailer:  tailer,
		g:       g,
		v:       newEpochVerifier(pub, g, poolWidth(opts.Workers), tailWindow),
		history: make(map[int]sealedEpoch),
	}
}

// Poll drains every record the tailer has available, returning how many
// were consumed; running out of appended records is not an error. A record
// the audit refuses is sticky, returned from every later call. An error of
// the tailer itself is returned but not kept: the next Poll asks the tailer
// again from the same record, so a FileLog tailer repeats its corruption
// error there (as store.Tailer documents) and a node that comes back
// resumes.
func (a *TailAuditor) Poll() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return 0, a.err
	}
	if a.tailer == nil {
		return 0, fmt.Errorf("vdp: tail: no tailer attached")
	}
	for n := 0; ; n++ {
		rec, off, err := a.tailer.Next()
		if err == nil {
			err = a.feedLocked(rec, off)
		}
		if errors.Is(err, store.ErrNoRecord) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// Feed consumes one record (at the given log offset) in append order.
func (a *TailAuditor) Feed(rec *store.Record, off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	return a.feedLocked(rec, off)
}

// feedLocked runs one record through the grammar and hands its event to
// the verifier, settling a verdict at once: the Feed of a divergent record
// returns its error, and keeps it.
func (a *TailAuditor) feedLocked(rec *store.Record, off int64) error {
	ev, err := a.g.Feed(rec, a.recIdx, off)
	if err == nil {
		err = a.v.apply(context.Background(), ev)
	}
	if err == nil {
		err = a.v.settle(context.Background())
	}
	if err != nil {
		a.err = err
		return err
	}
	if ev.kind == evSeal {
		a.history[a.g.epoch] = sealedEpoch{digest: a.v.digest, roster: a.g.rosterIDs()}
	}
	a.recIdx++
	return nil
}

// VerifiedDigest returns the verified digest of a sealed epoch the tail has
// followed, and whether that epoch has sealed yet.
func (a *TailAuditor) VerifiedDigest(epoch int) ([]byte, bool) {
	s, ok, _ := a.verified(epoch)
	return s.digest, ok
}

// verified returns a sealed epoch's verified digest and roster, whether that
// epoch has sealed yet, and the sticky audit failure.
func (a *TailAuditor) verified(epoch int) (sealedEpoch, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.history[epoch]
	return s, ok, a.err
}

// Close releases the tailer the auditor was opened with, if any.
func (a *TailAuditor) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tailer == nil {
		return nil
	}
	t := a.tailer
	a.tailer = nil
	return t.Close()
}

// TailSource is where a merged tail reads one segment from: the read half
// of a store.Log, or a cluster node's board log over the wire.
type TailSource interface {
	ReadFrom(index int) (store.Tailer, error)
}

// SealLookup returns the merged seal recorded for epoch; ok is false while
// none is recorded yet.
type SealLookup func(epoch int) (digest []byte, ok bool, err error)

// SegmentedTail is the one live merged tail, the live counterpart of
// auditMerged: one TailAuditor per segment, each pinned and charging under
// its segment kind (a client on a foreign shard, or — ShardOf being a
// function — on two shards, fails at its record) and draining its source,
// plus the lookup of the recorded merged seals. It serves a segmented
// directory (TailSketchLog, whose lookup reads the manifest) and a cluster's
// nodes (cluster.TailFollower, whose lookup asks every node) alike. One
// goroutine drives it.
type SegmentedTail struct {
	kind    segmentKind
	shards  []*TailAuditor
	seals   SealLookup
	records []int // records consumed per segment
}

// NewSegmentedTail opens a live tail over the K shards of a sharded board,
// given in shard order, whose merged seals seals looks up.
func NewSegmentedTail(pub *Public, sources []TailSource, seals SealLookup, opts TailOptions) (*SegmentedTail, error) {
	return newSegmentedTail(pub, sources, seals, opts, shardSegments)
}

func newSegmentedTail(pub *Public, sources []TailSource, seals SealLookup, opts TailOptions, kind segmentKind) (*SegmentedTail, error) {
	st := &SegmentedTail{kind: kind, seals: seals, records: make([]int, len(sources))}
	for i, src := range sources {
		t, err := src.ReadFrom(0)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.shards = append(st.shards, newTailAuditor(pub, opts, kind, i, len(sources), t))
	}
	return st, nil
}

// tailSegments opens the merged tail over a segmented directory: its
// segments, and its manifest read into a merged-seal book.
func tailSegments(pub *Public, seg *store.SegmentedLog, opts TailOptions, kind segmentKind) (*SegmentedTail, error) {
	sources := make([]TailSource, seg.Shards())
	for i := range sources {
		sources[i] = seg.Segment(i)
	}
	return newSegmentedTail(pub, sources, ManifestSeals(seg), opts, kind)
}

// ManifestSeals is a segmented directory's seal lookup: every call reads
// the manifest into a merged-seal book under the book's one rule, so a
// refused record is an audit failure naming it.
func ManifestSeals(seg *store.SegmentedLog) SealLookup {
	return func(epoch int) ([]byte, bool, error) {
		book, err := openMergedSeals(seg.Manifest(), seg.Shards(), true)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrAuditFail, err)
		}
		_, digest, ok := book.Get(epoch)
		return digest, ok, nil
	}
}

// Poll drains every segment's source, returning the total records
// consumed, under TailAuditor.Poll's error rule; the first error is
// returned.
func (st *SegmentedTail) Poll() (int, error) {
	n := 0
	for i, a := range st.shards {
		k, err := a.Poll()
		n += k
		st.records[i] += k
		if err != nil {
			return n, fmt.Errorf("%s %d: %w", st.kind.unit, i, err)
		}
	}
	return n, nil
}

// VerifyMerged reports on a merged epoch. ready is false while some segment
// has not sealed and verified it, or while no merged seal is recorded for
// it. Once every segment has, the sealed rosters must pass the kind's roster
// rule (checkRosters, as the offline audit applies it), and the merged
// digest is derived from the per-segment digests (in segment order, exactly
// MergedTranscriptDigest) and must equal the recorded seal. A segment that
// has flagged its log, a roster the rule refuses, or a recorded seal that
// disagrees fails outright.
func (st *SegmentedTail) VerifyMerged(epoch int) (digest []byte, ready bool, err error) {
	ds := make([][]byte, len(st.shards))
	rosters := make([][]int, len(st.shards))
	for i, a := range st.shards {
		s, ok, err := a.verified(epoch)
		if err != nil {
			return nil, false, fmt.Errorf("%s %d: %w", st.kind.unit, i, err)
		}
		if !ok {
			return nil, false, nil
		}
		ds[i], rosters[i] = s.digest, s.roster
	}
	if err := st.kind.checkRosters(rosters); err != nil {
		return nil, false, err
	}
	want, ok, err := st.seals(epoch)
	if err != nil || !ok {
		return nil, false, err
	}
	if digest = mergedDigestFromShards(ds); !bytes.Equal(want, digest) {
		return nil, false, fmt.Errorf("%w: the recorded merged seal for epoch %d disagrees with the live per-%s audits",
			ErrAuditFail, epoch, st.kind.unit)
	}
	return digest, true, nil
}

// Records returns how many records the tail has consumed per segment.
func (st *SegmentedTail) Records() []int { return slices.Clone(st.records) }

// Close releases every segment's tailer.
func (st *SegmentedTail) Close() error {
	var errs []error
	for _, a := range st.shards {
		errs = append(errs, a.Close())
	}
	return errors.Join(errs...)
}
