package vdp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/morra"
	"repro/internal/pedersen"
	"repro/internal/store"
)

// Live audit tail: the analytical half of the board split. AuditLog
// re-verifies a sealed epoch from scratch — O(epoch) work after the fact —
// while a TailAuditor follows the board log as it is written, spending the
// per-client verification work at arrival time. The record grammar, the
// roster and the seal-vs-roster cross-check are the boardGrammar's (the same
// machine ResumeSession and AuditLog read through, see grammar.go); the tail
// adds the cryptography: every arrival's Σ-OR proof decided in windows,
// every logged verdict cross-checked against it, and the running Line-13
// client product (the Σ-OR-vetted share commitments of every roster client,
// folded per bin and prover as verdicts land). At seal time the remaining
// work is O(M·nb·K) — fold the accumulator into the adjusted coin
// commitments, re-derive the release — independent of how many clients the
// epoch admitted. Any third party holding the log can follow the bulletin
// board live, which is the paper's public-verifiability story made
// continuous.

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

// tailWindow is how many unverified submissions accumulate before they are
// folded through one batched Σ-OR check. A bigger window amortizes the
// random-linear-combination batching better; any pending remainder is
// flushed when a verdict needs it or at seal time. A var so tests can shrink
// it to exercise window boundaries on small boards.
var tailWindow = 64

// tailClient is the tail's own state for one live client: what its Σ-OR
// check concluded about the submission the grammar admitted.
type tailClient struct {
	pub     *ClientPublic
	checked bool // board proof decided by the batched Σ-OR check
	valid   bool // board proof verdict
	folded  bool // share commitments folded into the running product
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
	pub     *Public
	workers int

	mu     sync.Mutex
	tailer store.Tailer
	err    error

	g       *boardGrammar
	recIdx  int // records consumed, all epochs
	byID    map[int]*tailClient
	pending []*tailClient
	// prod[j][pk] is the running product of the roster clients' share
	// commitments for bin j, prover pk — Line 13's client factor, built as
	// verdicts land so the seal-time check never walks the roster again.
	prod    [][]*pedersen.Commitment
	digest  []byte         // the live epoch's verified digest, once sealed
	history map[int][]byte // sealed epoch -> verified digest
}

// NewTailAuditor creates a live auditor for a single board log. Feed it
// records directly, or AttachTailer + Poll to drain a store tail.
func NewTailAuditor(pub *Public, opts TailOptions) *TailAuditor {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &TailAuditor{
		pub:     pub,
		workers: workers,
		g:       newBoardGrammar(pub, opts.Budget, true),
		byID:    make(map[int]*tailClient),
		history: make(map[int][]byte),
	}
}

// TailAuditLog opens a live tail on a tailable board log: the returned
// auditor drains new records on every Poll.
func TailAuditLog(pub *Public, log store.TailableLog, opts TailOptions) (*TailAuditor, error) {
	t, err := log.Tail()
	if err != nil {
		return nil, err
	}
	a := NewTailAuditor(pub, opts)
	a.AttachTailer(t)
	return a, nil
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

// consume runs one record through the grammar and applies its event to the
// tail's cryptographic state.
func (a *TailAuditor) consume(rec *store.Record, off int64) error {
	ev, err := a.g.Feed(rec, a.recIdx, off)
	if err != nil {
		return err
	}
	switch ev.kind {
	case evSubmission:
		if prev := a.byID[ev.client.id]; prev != nil {
			a.unpend(prev) // superseded by this retry
		}
		tc := &tailClient{pub: ev.sub.Public}
		a.byID[ev.client.id] = tc
		a.pending = append(a.pending, tc)
		if len(a.pending) >= tailWindow {
			return a.flushPending()
		}
	case evVerdict:
		return a.checkVerdict(ev.client)
	case evWithdraw:
		a.unpend(a.byID[ev.client.id])
		delete(a.byID, ev.client.id)
	case evSeal:
		return a.verifySeal(ev.seal)
	case evBoundary:
		a.byID = make(map[int]*tailClient)
		a.pending = nil
		a.prod = nil
		a.digest = nil
	}
	return nil
}

// checkVerdict cross-checks a logged verdict against this tail's own
// verification: the log's claim and the cryptography must agree, record by
// record.
func (a *TailAuditor) checkVerdict(cl *boardClient) error {
	tc := a.byID[cl.id]
	if cl.refused {
		// A budget refusal is decided before any verification runs (the
		// grammar has checked it against the replayed ledger), so there is no
		// proof verdict to compare; the client never joins the Σ-OR window.
		a.unpend(tc)
		return nil
	}
	if !tc.checked {
		if err := a.flushPending(); err != nil {
			return err
		}
	}
	switch {
	case cl.reject == nil && !tc.valid:
		return a.g.errorf("client %d accepted, but its board proof fails (submission at record %d)", cl.id, cl.index)
	case cl.reject != nil && cl.onBoard && tc.valid:
		return a.g.errorf("client %d rejected on the board, but its board proof verifies (submission at record %d)", cl.id, cl.index)
	case cl.reject != nil && !cl.onBoard && !tc.valid:
		// A payload (private-channel) rejection implies the board proof
		// passed — Session.verify decides the board first and attributes
		// board failures as on-board verdicts.
		return a.g.errorf("client %d refused off-board as a payload dispute, but its board proof fails (submission at record %d)", cl.id, cl.index)
	}
	if cl.reject == nil {
		a.fold(tc)
	}
	return nil
}

// flushPending decides every pending submission's board proof with one
// batched Σ-OR check — the same filterValidClientsBatch the session and the
// offline auditor use, so all three always reach identical verdicts.
func (a *TailAuditor) flushPending() error {
	if len(a.pending) == 0 {
		return nil
	}
	pubs := make([]*ClientPublic, len(a.pending))
	for i, tc := range a.pending {
		pubs[i] = tc.pub
	}
	_, rejected, err := a.pub.filterValidClientsBatch(context.Background(), pubs, a.workers)
	if err != nil {
		return err
	}
	for _, tc := range a.pending {
		tc.checked = true
		_, bad := rejected[tc.pub.ID]
		tc.valid = !bad
	}
	a.pending = a.pending[:0]
	return nil
}

// fold accumulates one roster client's share commitments into the running
// Line-13 product. Commitment Add is immutable, so seal-time reads copy
// freely.
func (a *TailAuditor) fold(tc *tailClient) {
	if tc.folded || !tc.valid {
		return
	}
	m := a.pub.cfg.Bins
	k := a.pub.cfg.Provers
	if a.prod == nil {
		a.prod = make([][]*pedersen.Commitment, m)
		for j := 0; j < m; j++ {
			a.prod[j] = make([]*pedersen.Commitment, k)
			for pk := 0; pk < k; pk++ {
				a.prod[j][pk] = a.pub.pp.Zero()
			}
		}
	}
	for j := 0; j < m; j++ {
		for pk := 0; pk < k; pk++ {
			a.prod[j][pk] = a.prod[j][pk].Add(tc.pub.ShareCommitments[j][pk])
		}
	}
	tc.folded = true
}

// unpend removes a client that left the roster from the unchecked window.
func (a *TailAuditor) unpend(tc *tailClient) {
	for i, c := range a.pending {
		if c == tc {
			a.pending = append(a.pending[:i], a.pending[i+1:]...)
			return
		}
	}
}

// verifySeal is the O(1) seal-time check (constant in the epoch's client
// count). The grammar has already byte-compared the sealed client section
// against the roster; what remains is to flush the last unchecked window,
// then verify only the O(M·nb·K) tail — coin proofs, Morra coins, the
// Line-13 equation with the pre-folded client product, and the aggregation —
// and derive the transcript digest without ever re-decoding a client.
func (a *TailAuditor) verifySeal(sealBytes []byte) error {
	if err := a.flushPending(); err != nil {
		return err
	}
	// Clients still undecided at seal time (a DeferVerification session
	// writes no per-arrival verdicts) join the product by their Σ-OR
	// verdict, exactly as Finalize's batch check decides them.
	for _, cl := range a.g.roster {
		if !cl.decided {
			a.fold(a.byID[cl.id])
		}
	}
	sp, err := a.pub.splitSealedTranscript(sealBytes)
	if err != nil {
		return a.g.errorf("seal: %v", err)
	}

	k := a.pub.cfg.Provers
	m := a.pub.cfg.Bins
	if len(sp.coinMsgs) != k || len(sp.morra) != k || len(sp.outputs) != k {
		return a.g.errorf("seal covers %d/%d/%d prover records, want %d",
			len(sp.coinMsgs), len(sp.morra), len(sp.outputs), k)
	}
	if sp.release == nil {
		return a.g.errorf("seal carries no release")
	}

	// Per-prover checks, concurrently, mirroring auditParallel — but Line
	// 13's client factor is the rolling product, not a roster walk.
	inner := a.workers / k
	if inner < 1 {
		inner = 1
	}
	pv := NewVerifierParallel(a.pub, inner)
	err = forEach(context.Background(), a.workers, k, func(pk int) error {
		msg := sp.coinMsgs[pk]
		if msg.Prover != pk {
			return fmt.Errorf("coin message %d claims prover %d", pk, msg.Prover)
		}
		if err := pv.VerifyCoinCommitments(msg); err != nil {
			return err
		}
		rec := sp.morra[pk]
		xs, err := morra.Combine(a.pub.pp, rec.Commits, rec.Reveals)
		if err != nil {
			return fmt.Errorf("morra record for prover %d: %v", pk, err)
		}
		bits := morra.Bits(xs)
		if len(bits) != m*a.pub.nb {
			return fmt.Errorf("morra record for prover %d has %d coins, want %d", pk, len(bits), m*a.pub.nb)
		}
		adjusted, err := pv.AdjustedCoinCommitments(msg, reshapeBits(bits, m, a.pub.nb))
		if err != nil {
			return err
		}
		out := sp.outputs[pk]
		if out.Prover != pk {
			return fmt.Errorf("output %d claims prover %d", pk, out.Prover)
		}
		if len(out.Y) != m || len(out.Z) != m {
			return fmt.Errorf("prover %d output covers %d/%d bins, want %d", pk, len(out.Y), len(out.Z), m)
		}
		for j := 0; j < m; j++ {
			e := a.pub.pp.Zero()
			if a.prod != nil {
				e = a.prod[j][pk]
			}
			for _, c := range adjusted[j] {
				e = e.Add(c)
			}
			if !a.pub.pp.Verify(e, out.Y[j], out.Z[j]) {
				return fmt.Errorf("prover %d bin %d: commitment product does not open to reported (y, z)", pk, j)
			}
		}
		return nil
	})
	if err != nil {
		return a.g.errorf("seal: %v", err)
	}

	release, err := NewVerifierParallel(a.pub, a.workers).Aggregate(sp.outputs)
	if err != nil {
		return a.g.errorf("seal: %v", err)
	}
	if len(release.Raw) != len(sp.release.Raw) {
		return a.g.errorf("seal release has %d bins, aggregation produces %d", len(sp.release.Raw), len(release.Raw))
	}
	for j := range release.Raw {
		if release.Raw[j] != sp.release.Raw[j] {
			return a.g.errorf("seal bin %d = %d, aggregation produces %d", j, sp.release.Raw[j], release.Raw[j])
		}
	}

	a.digest = sp.digest(a.pub)
	a.history[a.g.epoch] = a.digest
	return nil
}

// Epoch returns the epoch the tail is currently following.
func (a *TailAuditor) Epoch() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.g.epoch
}

// Records returns how many records the tail has consumed.
func (a *TailAuditor) Records() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recIdx
}

// Clients returns the live roster-shadow size for the current epoch.
func (a *TailAuditor) Clients() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.g.roster)
}

// Sealed reports whether the current epoch's seal has been verified.
func (a *TailAuditor) Sealed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.digest != nil
}

// Digest returns the current epoch's verified transcript digest (nil until
// the epoch seals cleanly). It equals TranscriptDigest over the sealed
// transcript.
func (a *TailAuditor) Digest() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.digest
}

// LedgerDigest returns the tail's replayed budget-ledger chain head — the
// genesis digest before any charge. When the followed session runs a
// budget, this must equal Session.LedgerDigest byte for byte; a mismatch
// means the two replayed different charge streams.
func (a *TailAuditor) LedgerDigest() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.g.ledger.digest()
}

// VerifiedDigest returns the verified digest of a sealed epoch the tail has
// followed, and whether that epoch has sealed yet.
func (a *TailAuditor) VerifiedDigest(epoch int) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.history[epoch]
	return d, ok
}

// ReverifySeal re-runs the seal-time verification walk against the state
// the tail has accumulated for the live epoch, without consuming a record
// or moving the grammar position. Feed/Poll callers never need it: it
// exists so BenchmarkTailSealVerify can time the constant-cost seal step
// in isolation from the per-arrival work it rides on.
func (a *TailAuditor) ReverifySeal(sealBytes []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.verifySeal(sealBytes)
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
	pub    *Public
	shards []*TailAuditor

	mu     sync.Mutex
	seals  map[int][]byte
	manIdx int
}

// NewMergedTailAuditor creates a live auditor for a K-shard deployment.
func NewMergedTailAuditor(pub *Public, shards int, opts TailOptions) *MergedTailAuditor {
	return newMergedTail(pub, max(shards, 1), opts, shardSegments)
}

// newMergedTail builds one TailAuditor per segment, each reading under its
// kind's roster rule and charging policy.
func newMergedTail(pub *Public, n int, opts TailOptions, kind segmentKind) *MergedTailAuditor {
	m := &MergedTailAuditor{pub: pub, seals: make(map[int][]byte)}
	for i := 0; i < n; i++ {
		so := opts
		so.Budget = kind.budget(i, opts.Budget)
		a := NewTailAuditor(pub, so)
		a.SetShard(kind.pin(i, n))
		m.shards = append(m.shards, a)
	}
	return m
}

// Shards returns the shard count.
func (m *MergedTailAuditor) Shards() int { return len(m.shards) }

// Shard returns shard i's TailAuditor; feed it that shard's records.
func (m *MergedTailAuditor) Shard(i int) *TailAuditor { return m.shards[i] }

// FeedManifest consumes one manifest record, enforcing the same grammar
// readMergedSeals does: store bookkeeping is skipped, every merged seal
// must carry the right shard count, no epoch seals twice, and a kind no
// ShardedSession writes is flagged.
func (m *MergedTailAuditor) FeedManifest(rec *store.Record, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.manIdx
	m.manIdx++
	if rec.Kind >= store.KindSegmentedInit {
		return nil // store-reserved bookkeeping
	}
	if rec.Kind != RecordMergedSeal {
		return fmt.Errorf("%w: manifest record %d (offset %d) has unknown kind %d", ErrAuditFail, i, off, rec.Kind)
	}
	shards, digest, err := decodeMergedSeal(rec.Payload)
	if err != nil {
		return fmt.Errorf("%w: manifest record %d (offset %d): %v", ErrAuditFail, i, off, err)
	}
	if shards != len(m.shards) {
		return fmt.Errorf("%w: manifest record %d (offset %d) claims %d shards, tail follows %d",
			ErrAuditFail, i, off, shards, len(m.shards))
	}
	epoch := int(rec.Epoch)
	if _, dup := m.seals[epoch]; dup {
		return fmt.Errorf("%w: manifest record %d (offset %d) seals epoch %d twice", ErrAuditFail, i, off, epoch)
	}
	m.seals[epoch] = digest
	return nil
}

// SetMergedSeal registers an externally-fetched merged-seal claim — the
// RPC-tail counterpart of FeedManifest, for followers that learn the seal
// from a cluster node instead of a manifest log. Re-registering the same
// claim is a no-op; a conflicting claim for an epoch already registered is
// an audit failure (two merged seals for one epoch means a forked merge).
func (m *MergedTailAuditor) SetMergedSeal(epoch, shards int, digest []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if shards != len(m.shards) {
		return fmt.Errorf("%w: merged seal for epoch %d claims %d shards, tail follows %d",
			ErrAuditFail, epoch, shards, len(m.shards))
	}
	if prev, ok := m.seals[epoch]; ok {
		if !bytes.Equal(prev, digest) {
			return fmt.Errorf("%w: conflicting merged seals for epoch %d", ErrAuditFail, epoch)
		}
		return nil
	}
	m.seals[epoch] = append([]byte(nil), digest...)
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
	m.mu.Lock()
	want, ok := m.seals[epoch]
	m.mu.Unlock()
	if ok && !bytes.Equal(want, digest) {
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

// TailAuditMerged opens a live audit tail over a segmented board log.
func TailAuditMerged(pub *Public, seg *store.SegmentedLog, opts TailOptions) (*SegmentedTail, error) {
	return tailSegments(pub, seg, opts, shardSegments)
}

// tailSegments wires a merged auditor to every segment's (and the
// manifest's) store tail.
func tailSegments(pub *Public, seg *store.SegmentedLog, opts TailOptions, kind segmentKind) (*SegmentedTail, error) {
	m := newMergedTail(pub, seg.Shards(), opts, kind)
	for i := 0; i < seg.Shards(); i++ {
		t, err := seg.Segment(i).Tail()
		if err != nil {
			m.Close()
			return nil, err
		}
		m.Shard(i).AttachTailer(t)
	}
	manTail, err := seg.Manifest().Tail()
	if err != nil {
		m.Close()
		return nil, err
	}
	return &SegmentedTail{merged: m, manTail: manTail}, nil
}

// Merged returns the underlying merged auditor.
func (st *SegmentedTail) Merged() *MergedTailAuditor { return st.merged }

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

// splitSeal is a sealed transcript shallow-parsed for the tail's seal walk:
// the client section stays raw (per-client byte slices, no elliptic-curve
// decode — that is the O(n) cost the tail already paid at arrival time),
// while the O(M·nb·K) prover tail is fully decoded for verification.
type splitSeal struct {
	clientRaw [][]byte
	coinMsgs  []*CoinCommitMsg
	morra     []*MorraRecord
	outputs   []*ProverOutput
	release   *Release
}

// splitSealedTranscript shallow-parses an encoded transcript; the layout is
// exactly DecodeTranscript's, with the client section left undecoded.
func (p *Public) splitSealedTranscript(b []byte) (*splitSeal, error) {
	r := wireReader{b: b}
	sp := &splitSeal{clientRaw: readSealedClients(&r)}

	nCoin := r.u32()
	if r.err == nil && nCoin > maxWireDim {
		return nil, fmt.Errorf("vdp: transcript claims %d coin messages", nCoin)
	}
	for i := uint32(0); i < nCoin && r.err == nil; i++ {
		raw := r.lpBytes()
		if r.err != nil {
			break
		}
		msg, err := p.DecodeCoinCommitMsg(raw)
		if err != nil {
			return nil, err
		}
		sp.coinMsgs = append(sp.coinMsgs, msg)
	}

	nMorra := r.u32()
	if r.err == nil && nMorra > maxWireDim {
		return nil, fmt.Errorf("vdp: transcript claims %d morra records", nMorra)
	}
	for i := uint32(0); i < nMorra && r.err == nil; i++ {
		raw := r.lpBytes()
		if r.err != nil {
			break
		}
		rec, err := p.DecodeMorraRecord(raw)
		if err != nil {
			return nil, err
		}
		sp.morra = append(sp.morra, rec)
	}

	nOut := r.u32()
	if r.err == nil && nOut > maxWireDim {
		return nil, fmt.Errorf("vdp: transcript claims %d prover outputs", nOut)
	}
	for i := uint32(0); i < nOut && r.err == nil; i++ {
		raw := r.lpBytes()
		if r.err != nil {
			break
		}
		out, err := p.DecodeProverOutput(raw)
		if err != nil {
			return nil, err
		}
		sp.outputs = append(sp.outputs, out)
	}

	if r.u32() == 1 && r.err == nil {
		m := r.u32()
		if r.err == nil && m > maxWireDim {
			return nil, fmt.Errorf("vdp: release claims %d bins", m)
		}
		rel := &Release{Stddev: stddev(p.cfg.Provers, p.nb)}
		mean := p.NoiseMean()
		for j := uint32(0); j < m && r.err == nil; j++ {
			hi := r.u32()
			lo := r.u32()
			if r.err != nil {
				break
			}
			raw := int64(uint64(hi)<<32 | uint64(lo))
			rel.Raw = append(rel.Raw, raw)
			rel.Estimate = append(rel.Estimate, float64(raw)-mean)
		}
		sp.release = rel
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return sp, nil
}

// digest reproduces TranscriptDigest from the shallow parse: the client
// section is hashed from its raw slices (each equals EncodeClientPublic of
// the decoded client — the encodings are canonical), the rest from the
// decoded components.
func (sp *splitSeal) digest(pub *Public) []byte {
	h := sha256.New()
	writeU32(h, uint32(len(sp.clientRaw)))
	for _, raw := range sp.clientRaw {
		chunk(h, raw)
	}
	writeU32(h, uint32(len(sp.coinMsgs)))
	for _, msg := range sp.coinMsgs {
		digestCoinMsg(h, pub, msg)
	}
	writeU32(h, uint32(len(sp.morra)))
	for _, rec := range sp.morra {
		digestMorra(h, pub, rec)
	}
	writeU32(h, uint32(len(sp.outputs)))
	for _, out := range sp.outputs {
		chunk(h, pub.EncodeProverOutput(out))
	}
	if sp.release != nil {
		writeU32(h, uint32(len(sp.release.Raw)))
		for _, raw := range sp.release.Raw {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(raw))
			h.Write(b[:])
		}
	}
	return h.Sum(nil)
}

// transcriptDigestFromBytes computes TranscriptDigest directly from a
// sealed transcript's encoding, decoding only the O(M·nb·K) prover tail.
// Snapshot validation and replay use it so pinning an epoch's digest never
// costs a full client decode.
func transcriptDigestFromBytes(pub *Public, sealBytes []byte) ([]byte, error) {
	sp, err := pub.splitSealedTranscript(sealBytes)
	if err != nil {
		return nil, err
	}
	return sp.digest(pub), nil
}
