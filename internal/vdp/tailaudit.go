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

// Live audit tail: the analytical half of the board split, and the one
// board reader every audit runs. A TailAuditor follows a board log as it is
// written, spending the per-client verification work at arrival time;
// AuditLog is the same auditor drained to the end of a sealed log. Either
// way the boardGrammar (grammar.go) judges the record grammar, the roster
// and the seal-vs-roster cross-check, and the epochVerifier
// (epochverifier.go) the cryptography — every arrival's Σ-OR proof decided
// in windows, every logged verdict cross-checked against it, and the running
// Line-13 client product, so that at seal time the remaining work is
// O(M·nb·K), independent of how many clients the epoch admitted. Any third
// party holding the log can follow the bulletin board live, which is the
// paper's public-verifiability story made continuous.

// TailOptions configures a live audit tail.
type TailOptions struct {
	// Workers is the verification pool width (0 = GOMAXPROCS): the
	// submissions a Poll drains are decoded on it a window ahead of the
	// grammar, and each window's batched Σ-OR check — the derived
	// commitments and the multi-exponentiation — and the seal-time
	// per-prover checks run on it.
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
	return newTailAuditor(pub, opts, shardSegments, 0, 1)
}

// newTailAuditor creates an auditor for segment i of an n-segment board of
// the given kind, under the kind's pin (so a curator cannot smuggle a client
// onto a shard of its choosing) and charging policy. Segment 0 of 1 is a
// plain log. A live tail sets the tailer that Poll drains and Close closes.
func newTailAuditor(pub *Public, opts TailOptions, kind segmentKind, i, n int) *TailAuditor {
	shard, shards := kind.pin(i, n)
	g := newBoardGrammar(pub, kind.budget(i, opts.Budget), true, shard, shards)
	return &TailAuditor{
		g:       g,
		v:       newEpochVerifier(pub, g, poolWidth(opts.Workers)),
		history: make(map[int]sealedEpoch),
	}
}

// Poll drains every record the tailer has available, returning how many
// were consumed; running out of appended records is not an error. A record
// the audit refuses is sticky, returned from every later call. An error of
// the tailer itself is returned but not kept, once the records it did
// deliver are judged: the next Poll asks the tailer again from the same
// record, so a FileLog tailer repeats its corruption error there (as
// store.Tailer documents) and a node that comes back resumes.
func (a *TailAuditor) Poll() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tailer == nil {
		return 0, fmt.Errorf("vdp: tail: no tailer attached")
	}
	return a.drain(context.Background(), tailed(a.tailer), func(int, *store.Record) bool { return true })
}

// Feed consumes one record (at the given log offset) in append order,
// decoding it on the calling goroutine, and settles it: the Feed of a
// divergent record returns its error, and keeps it. Its arrivals are decided
// every feedWindow submissions (epochverifier.go).
func (a *TailAuditor) Feed(rec *store.Record, off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	ctx := context.Background()
	ev, err := a.g.feed(rec, off, true, a.g.pub.decodeSubmission(rec))
	if err == nil {
		err = a.verify(ctx, ev)
	}
	if err == nil && (len(a.v.verdicts) > 0 || len(a.v.pending) >= feedWindow) {
		err = a.v.flush(ctx) // settles, and decides a full feedWindow
	}
	a.err = err
	return err
}

// audit drains log to its end as an offline reader of epoch — that epoch's
// records read in full, every other one skimmed — which must seal.
func (a *TailAuditor) audit(ctx context.Context, log Replayer, epoch int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, err := a.drain(ctx, replayed(log), func(_ int, rec *store.Record) bool { return int(rec.Epoch) == epoch })
	if _, ok := a.history[epoch]; err == nil && !ok {
		err = fmt.Errorf("%w: epoch %d is not sealed in the board log", ErrAuditFail, epoch)
	}
	return err
}

// drain is the one board read: src's records go through the grammar's
// windowed replay, the ones full selects in full, and their events to the
// verifier, which settles every waiting verdict before drain returns — so
// whatever stops it, the blame falls on the lowest-index divergent record.
// It returns how many records it consumed. A refusal of the grammar or the
// verifier is kept; an error of src is returned once the records it did
// deliver are judged, and not kept. Callers hold a.mu.
func (a *TailAuditor) drain(ctx context.Context, src recordSource, full func(int, *store.Record) bool) (int, error) {
	if a.err != nil {
		return 0, a.err
	}
	from := a.g.fed
	var verr error
	err := a.g.replay(ctx, src, a.v.workers, full, func(ev boardEvent) error {
		verr = a.verify(ctx, ev)
		return verr
	})
	if verr == nil {
		if serr := a.v.settle(ctx); serr != nil {
			err, verr = serr, serr
		}
	}
	if verr != nil || a.g.err != nil {
		a.err = err
	}
	return a.g.fed - from, err
}

// verify hands the event of one record read in full to the verifier and,
// at a seal, keeps what it verified of the epoch.
func (a *TailAuditor) verify(ctx context.Context, ev boardEvent) error {
	err := a.v.apply(ctx, ev)
	if err == nil && ev.kind == evSeal {
		a.history[a.g.epoch] = sealedEpoch{digest: a.v.digest, roster: a.g.rosterIDs()}
	}
	return err
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

// SegmentedTail is the one merged reader: one TailAuditor per segment,
// each pinned and charging under its segment kind (a client on a foreign
// shard, or — ShardOf being a function — on two shards, fails at its
// record), plus the lookup of the recorded merged seals. Live, each auditor
// drains its source: a segmented directory (TailSketchLog, whose lookup
// reads the manifest) and a cluster's nodes (cluster.TailFollower, whose
// lookup asks every node) alike. Offline, auditMerged drains each auditor
// over its log's Replay to the end. One goroutine drives it.
type SegmentedTail struct {
	kind    segmentKind
	shards  []*TailAuditor
	seals   SealLookup
	records []int // records consumed per segment
}

// NewSegmentedTail opens a live tail over the K shards of a sharded board,
// given in shard order, whose merged seals seals looks up.
func NewSegmentedTail(pub *Public, sources []TailSource, seals SealLookup, opts TailOptions) (*SegmentedTail, error) {
	return openSegmentedTail(pub, sources, seals, opts, shardSegments)
}

// newSegmentedTail builds the merged reader of an n-segment board of the
// given kind. A board of no segments holds no evidence and is refused.
func newSegmentedTail(pub *Public, n int, seals SealLookup, opts TailOptions, kind segmentKind) (*SegmentedTail, error) {
	if n == 0 {
		return nil, fmt.Errorf("%w: no board logs to audit", ErrAuditFail)
	}
	st := &SegmentedTail{kind: kind, seals: seals, records: make([]int, n)}
	for i := 0; i < n; i++ {
		st.shards = append(st.shards, newTailAuditor(pub, opts, kind, i, n))
	}
	return st, nil
}

// openSegmentedTail is the live merged tail: each auditor drains its
// source's tailer from the first record.
func openSegmentedTail(pub *Public, sources []TailSource, seals SealLookup, opts TailOptions, kind segmentKind) (*SegmentedTail, error) {
	st, err := newSegmentedTail(pub, len(sources), seals, opts, kind)
	if err != nil {
		return nil, err
	}
	for i, src := range sources {
		if st.shards[i].tailer, err = src.ReadFrom(0); err != nil {
			st.Close()
			return nil, err
		}
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
	return openSegmentedTail(pub, sources, ManifestSeals(seg), opts, kind)
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

// VerifyMerged is the one merge check, live and offline. ready is false
// while some segment has not sealed and verified the epoch, or while no
// merged seal is recorded for it. Once every segment has, the sealed rosters
// must pass the kind's roster rule (checkRosters), and the merged digest is
// derived from the per-segment digests (in segment order, exactly
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
		return nil, false, fmt.Errorf("%w: epoch %d merged digest %x disagrees with the recorded merged seal %x",
			ErrAuditFail, epoch, digest, want)
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
