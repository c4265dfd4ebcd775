package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
// Records are consumed in append order — via Feed, or by Poll draining an
// attached store.Tailer — and every grammar violation, forged verdict, or
// seal divergence is reported at the first divergent record, with its
// offset. Errors are sticky: a tail that has flagged its log refuses to
// consume further records, exactly like a human auditor who stops trusting
// a ledger at the first bad line.
//
// A TailAuditor is safe for concurrent use, though records must arrive in
// log order (one goroutine per log is the natural shape).
type TailAuditor struct {
	mu     sync.Mutex
	tailer store.Tailer
	err    error

	g       *boardGrammar
	v       *epochVerifier
	recIdx  int            // records consumed, all epochs
	history map[int][]byte // sealed epoch -> verified digest
}

// NewTailAuditor creates a live auditor for a single board log. Feed it
// records directly, or AttachTailer + Poll to drain a store tail.
func NewTailAuditor(pub *Public, opts TailOptions) *TailAuditor {
	g := newBoardGrammar(pub, opts.Budget, true)
	return &TailAuditor{
		g:       g,
		v:       newEpochVerifier(pub, g, poolWidth(opts.Workers), tailWindow),
		history: make(map[int][]byte),
	}
}

// SetShard pins the auditor to one shard of a sharded deployment: every
// submission must belong to shard index under ShardOf(id, count), so a
// curator cannot smuggle a client onto a shard of its choosing. Call before
// feeding any record.
func (a *TailAuditor) SetShard(index, count int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.g.shardIdx, a.g.shardCount = index, count
}

// AttachTailer hands the auditor a store tail to drain on Poll. The auditor
// owns the tailer from here: Close closes it.
func (a *TailAuditor) AttachTailer(t store.Tailer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tailer = t
}

// Poll drains every record the attached tailer has available, returning how
// many were consumed. A store-level corruption error or an audit failure is
// sticky and returned from every later call; running out of appended
// records is not an error.
func (a *TailAuditor) Poll() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return 0, a.err
	}
	if a.tailer == nil {
		return 0, fmt.Errorf("vdp: tail: no tailer attached")
	}
	n := 0
	for {
		rec, off, err := a.tailer.Next()
		if errors.Is(err, store.ErrNoRecord) {
			return n, nil
		}
		if err != nil {
			a.err = err
			return n, err
		}
		if err := a.feedLocked(rec, off); err != nil {
			return n, err
		}
		n++
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

func (a *TailAuditor) feedLocked(rec *store.Record, off int64) error {
	if err := a.consume(rec, off); err != nil {
		a.err = err
		return err
	}
	a.recIdx++
	return nil
}

// consume runs one record through the grammar and hands its event to the
// verifier, settling a verdict at once: the Feed of a divergent record
// returns its error.
func (a *TailAuditor) consume(rec *store.Record, off int64) error {
	ev, err := a.g.Feed(rec, a.recIdx, off)
	if err == nil {
		err = a.v.apply(context.Background(), ev)
	}
	if err == nil {
		err = a.v.settle(context.Background())
	}
	if err == nil && ev.kind == evSeal {
		a.history[a.g.epoch] = a.v.digest
	}
	return err
}

// VerifiedDigest returns the verified digest of a sealed epoch the tail has
// followed, and whether that epoch has sealed yet.
func (a *TailAuditor) VerifiedDigest(epoch int) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.history[epoch]
	return d, ok
}

// Err returns the sticky audit failure, if any.
func (a *TailAuditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Close releases the attached tailer, if any.
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

// MergedTailAuditor follows a sharded epoch live: one TailAuditor per shard
// (each pinned to its ShardOf slice, so no client can appear on a foreign
// shard — or, since ShardOf is a function, on two shards at once) plus the
// manifest's merged-seal stream. VerifyMerged reproduces
// MergedTranscriptDigest from the per-shard verified digests and
// cross-checks the manifest's claim.
type MergedTailAuditor struct {
	shards []*TailAuditor
	book   *MergedSeals // the manifest's merged seals fed so far
}

// NewMergedTailAuditor creates a live auditor for a K-shard deployment.
func NewMergedTailAuditor(pub *Public, shards int, opts TailOptions) *MergedTailAuditor {
	return newMergedTail(pub, max(shards, 1), opts, shardSegments)
}

// newMergedTail builds one TailAuditor per segment, each reading under its
// kind's roster rule and charging policy.
func newMergedTail(pub *Public, n int, opts TailOptions, kind segmentKind) *MergedTailAuditor {
	m := &MergedTailAuditor{book: &MergedSeals{shards: n, seals: make(map[int][]byte)}}
	for i := 0; i < n; i++ {
		so := opts
		so.Budget = kind.budget(i, opts.Budget)
		a := NewTailAuditor(pub, so)
		a.SetShard(kind.pin(i, n))
		m.shards = append(m.shards, a)
	}
	return m
}

// Shard returns shard i's TailAuditor; feed it that shard's records.
func (m *MergedTailAuditor) Shard(i int) *TailAuditor { return m.shards[i] }

// FeedManifest consumes one manifest record into the merged-seal book, the
// rule recovery reads the manifest by.
func (m *MergedTailAuditor) FeedManifest(rec *store.Record, off int64) error {
	if err := m.book.feed(rec); err != nil {
		return fmt.Errorf("%w: manifest record at offset %d: %v", ErrAuditFail, off, err)
	}
	return nil
}

// VerifyMerged reports on a merged epoch: once every shard has sealed and
// verified it, the merged digest is derived from the per-shard digests (in
// shard order, exactly MergedTranscriptDigest) and checked against the
// manifest's merged seal when one has arrived. ready is false while some
// shard has not sealed the epoch yet; a shard that has flagged its segment
// makes VerifyMerged fail outright.
func (m *MergedTailAuditor) VerifyMerged(epoch int) (digest []byte, ready bool, err error) {
	ds := make([][]byte, len(m.shards))
	for i, a := range m.shards {
		if err := a.Err(); err != nil {
			return nil, false, fmt.Errorf("shard %d: %w", i, err)
		}
		d, ok := a.VerifiedDigest(epoch)
		if !ok {
			return nil, false, nil
		}
		ds[i] = d
	}
	digest = mergedDigestFromShards(ds)
	if _, want, ok := m.book.Get(epoch); ok && !bytes.Equal(want, digest) {
		return nil, true, fmt.Errorf("%w: manifest merged seal for epoch %d disagrees with the live per-shard audits",
			ErrAuditFail, epoch)
	}
	return digest, true, nil
}

// SegmentedTail is the live counterpart of AuditSegmentedLog: a
// MergedTailAuditor wired to every segment's (and the manifest's) store
// tail, drained together by Poll.
type SegmentedTail struct {
	merged  *MergedTailAuditor
	manTail store.Tailer
}

// tailSegments wires a merged auditor to every segment's (and the
// manifest's) store tail.
func tailSegments(pub *Public, seg *store.SegmentedLog, opts TailOptions, kind segmentKind) (*SegmentedTail, error) {
	m := newMergedTail(pub, seg.Shards(), opts, kind)
	for i := 0; i < seg.Shards(); i++ {
		t, err := seg.Segment(i).ReadFrom(0)
		if err != nil {
			m.Close()
			return nil, err
		}
		m.Shard(i).AttachTailer(t)
	}
	manTail, err := seg.Manifest().ReadFrom(0)
	if err != nil {
		m.Close()
		return nil, err
	}
	return &SegmentedTail{merged: m, manTail: manTail}, nil
}

// Poll drains every shard tail and the manifest tail, returning the total
// records consumed. The first shard or manifest failure is returned (shard
// failures are sticky in their TailAuditor).
func (st *SegmentedTail) Poll() (int, error) {
	n := 0
	for i, a := range st.merged.shards {
		k, err := a.Poll()
		n += k
		if err != nil {
			return n, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	for {
		rec, off, err := st.manTail.Next()
		if errors.Is(err, store.ErrNoRecord) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := st.merged.FeedManifest(rec, off); err != nil {
			return n, err
		}
		n++
	}
}

// VerifyMerged reports on a merged epoch; see MergedTailAuditor.
func (st *SegmentedTail) VerifyMerged(epoch int) ([]byte, bool, error) {
	return st.merged.VerifyMerged(epoch)
}

// Close releases every attached store tail.
func (st *SegmentedTail) Close() error {
	err := st.merged.Close()
	if st.manTail != nil {
		if cerr := st.manTail.Close(); err == nil {
			err = cerr
		}
		st.manTail = nil
	}
	return err
}

// Close releases every shard's attached tailer.
func (m *MergedTailAuditor) Close() error {
	var first error
	for _, a := range m.shards {
		if err := a.Close(); first == nil {
			first = err
		}
	}
	return first
}
