package vdp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"sync"

	"repro/internal/store"
)

// SessionOptions configures a streaming aggregation session.
type SessionOptions struct {
	// Parallelism is the session's worker-pool width: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces sequential execution. Submission-time
	// verification (its batched check's multi-exponentiation included),
	// every Finalize stage and, in ResumeSession, the decoding of the
	// replayed submissions run on this pool.
	Parallelism int
	// Rand is the randomness source (nil = crypto/rand). When set, a single
	// root seed is read once at NewSession and expanded into independent
	// per-task substreams, so the same seed produces a byte-identical
	// transcript at every Parallelism — identical to what Run produces for
	// the same seed and submissions. Later epochs (after Reset) fork
	// independent child seeds, so no epoch ever repeats another's noise.
	Rand io.Reader
	// Malice assigns deviations to prover indices for adversarial testing;
	// absent provers are honest.
	Malice map[int]Malice
	// Store, when non-nil, makes the bulletin board durable: every admitted
	// submission and verdict is appended to the log before Submit returns,
	// Finalize seals the epoch's full transcript, and Reset marks the epoch
	// boundary. After a crash, ResumeSession replays the log to continue the
	// same epoch without data loss. NewSession requires an empty log; a log
	// with history must go through ResumeSession. Nil (the default) keeps
	// the board in memory only — the pre-durability behavior.
	Store store.BoardLog
	// Shards selects the sharded front door: NewShardedSession splits the
	// session into this many independent sub-sessions (consistent-hashed by
	// client ID) so Submits on different shards never contend on a shared
	// lock. 0 and 1 mean unsharded. NewSession rejects Shards > 1 — a
	// sharded session must be opened with NewShardedSession, whose Finalize
	// merges the per-shard transcripts.
	Shards int
	// Segmented is the durable store of a sharded session: one board-log
	// segment per shard plus a manifest, each segment speaking the exact
	// single-session record grammar. Only NewShardedSession and
	// ResumeShardedSession accept it; it is the sharded counterpart of
	// Store, and the two are mutually exclusive.
	Segmented *store.SegmentedLog
	// Budget enables the per-client privacy-budget ledger: every client's
	// first admission in an epoch appends a digest-chained
	// RecordBudgetCharge debiting EpochCost µε from its lifetime Total, and
	// a client whose next charge would not fit is refused with an
	// attributable board verdict. Sharded sessions charge on the client's
	// home shard (ShardOf pins every client to one segment, so each
	// segment's chain is complete for its clients). Nil disables the ledger.
	Budget *BudgetConfig
}

// sessionState is the Submit/Finalize/Reset lifecycle position.
type sessionState int

const (
	sessionOpen sessionState = iota
	sessionFinalizing
	sessionFinalized
)

func (s sessionState) String() string {
	switch s {
	case sessionOpen:
		return "open"
	case sessionFinalizing:
		return "finalizing"
	default:
		return "finalized"
	}
}

// sessionClient is one submitted client with its session-owned verification
// state.
type sessionClient struct {
	public   *ClientPublic
	payloads []*ClientPayload
	decided  bool  // verdict reached (false only while its batch verifies)
	reject   error // non-nil = publicly attributable rejection reason
}

// Session is the streaming protocol surface: a stateful aggregation window
// over one deployment. Clients are admitted incrementally with SubmitBatch
// (Submit for a lone arrival) — verified eagerly, on the session's worker
// pool, as they arrive — and the release is produced by Finalize, which
// runs the prover stage over the already-verified client set instead of
// re-deciding the board. Reset reopens the session for the next epoch, so
// one session serves many releases.
//
// Submit and SubmitBatch are safe for concurrent use from many goroutines;
// Finalize and Reset serialize against in-flight admissions. The batch entry
// points (Run, RunWithSubmissions, Count, Histogram) are one-epoch sessions
// that admit their clients as one SubmitBatch.
type Session struct {
	pub     *Public
	workers int // the worker-pool width, resolved from opts.Parallelism
	opts    SessionOptions
	root    *randSource

	// flight lets Submits proceed concurrently (read side) while Finalize
	// and Reset wait for them to drain (write side). Lock order: flight
	// before mu.
	flight sync.RWMutex

	mu       sync.Mutex
	state    sessionState
	epoch    int
	rs       *randSource // current epoch's substream source
	order    []*sessionClient
	byID     map[int]*sessionClient
	rejected map[int]error
	sealedT  *Transcript   // current epoch's sealed transcript, once finalized
	ledger   *budgetLedger // non-nil iff opts.Budget is set; guarded by mu
}

// NewSession opens a streaming session over pub. The options' Rand is read
// once, immediately, to fix the session's root seed (see SessionOptions).
// When opts.Store is set it must be empty: a log with history belongs to an
// earlier session incarnation and must be recovered with ResumeSession, not
// silently appended to.
func NewSession(pub *Public, opts SessionOptions) (*Session, error) {
	if opts.Shards > 1 {
		return nil, fmt.Errorf("%w: SessionOptions.Shards = %d needs NewShardedSession", ErrBadConfig, opts.Shards)
	}
	if opts.Segmented != nil {
		return nil, fmt.Errorf("%w: a segmented store belongs to a sharded session; use NewShardedSession", ErrBadConfig)
	}
	if err := opts.Budget.validate(); err != nil {
		return nil, err
	}
	if err := ensureEmptyLog(opts.Store); err != nil {
		return nil, err
	}
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	return newSessionFromSource(pub, opts, root), nil
}

// ensureEmptyLog verifies that a board log holds no records yet; a log with
// history belongs to an earlier session incarnation and must be recovered
// with ResumeSession, not silently appended to. A nil log is trivially empty.
func ensureEmptyLog(log store.BoardLog) error {
	if log == nil {
		return nil
	}
	err := log.Replay(func(*store.Record) error { return errLogNotEmpty })
	if errors.Is(err, errLogNotEmpty) {
		return fmt.Errorf("%w: board log already holds records; use ResumeSession to recover it", ErrBadConfig)
	}
	return err
}

// newSessionFromSource builds a session whose deterministic substreams hang
// off an already-derived root source, used by the sharded front door to give
// every shard an independent fork of one root seed without re-reading
// SessionOptions.Rand per shard.
func newSessionFromSource(pub *Public, opts SessionOptions, root *randSource) *Session {
	s := &Session{
		pub:      pub,
		workers:  poolWidth(opts.Parallelism),
		opts:     opts,
		root:     root,
		rs:       root,
		byID:     make(map[int]*sessionClient),
		rejected: make(map[int]error),
	}
	if opts.Budget != nil {
		s.ledger = newBudgetLedger(opts.Budget)
	}
	return s
}

// Epoch returns the session's current epoch number (0 before the first
// Reset).
func (s *Session) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Finalized reports whether the current epoch has been sealed by Finalize
// (and not yet reopened by Reset). A resumed session whose log ended in a
// sealed epoch starts out finalized.
func (s *Session) Finalized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == sessionFinalized
}

// Submitted returns how many clients the current epoch has admitted
// (accepted and rejected alike) so far.
func (s *Session) Submitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Accepted returns how many of the current epoch's submissions hold a clean
// (accepting) verdict so far.
func (s *Session) Accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, cl := range s.order {
		if cl.decided && cl.reject == nil {
			n++
		}
	}
	return n
}

// Rejected returns a snapshot of the current epoch's rejection reasons by
// client ID.
func (s *Session) Rejected() map[int]error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]error, len(s.rejected))
	for id, err := range s.rejected {
		out[id] = err
	}
	return out
}

// NewClientSubmission builds client material for the current epoch from the
// session's deterministic substream for clientID (or crypto/rand when the
// session is unseeded). It is how Run — and reproducibility tests — generate
// per-client material that is a pure function of (seed, clientID); real
// deployments receive submissions built remotely by
// Public.NewClientSubmission instead.
func (s *Session) NewClientSubmission(clientID, choice int) (*ClientSubmission, error) {
	s.mu.Lock()
	rs := s.rs
	s.mu.Unlock()
	return s.pub.NewClientSubmission(clientID, choice, rs.stream(labelClient, clientID))
}

// Submit admits one client into the current epoch: a batch of one through
// SubmitBatch, which is the session's only admission path. The return value
// is the client's verdict — nil admits it to the roster, an
// ErrClientReject-wrapped error records the rejection (see SubmitBatch for
// which rejections stay on the bulletin board) — unless the batch itself
// failed (closed session, cancelled ctx, failing store), and that error
// outranks any verdict: the client is acknowledged only once its records are
// durable.
//
// Submit is safe for concurrent use; verdicts are per-client and
// independent of interleaving.
func (s *Session) Submit(ctx context.Context, sub *ClientSubmission) error {
	verdicts, err := s.SubmitBatch(ctx, []*ClientSubmission{sub})
	if err != nil {
		return err
	}
	return verdicts[0]
}

// removeFromOrderLocked splices one client out of the submission order.
// Callers hold s.mu.
func (s *Session) removeFromOrderLocked(cl *sessionClient) {
	for i, c := range s.order {
		if c == cl {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// Finalize closes the current epoch and runs the remaining protocol stages —
// noise-coin commitment and Σ-OR proving, Morra public-coin sampling,
// prover outputs, the Line 13 product check, and aggregation — over the
// already-verified client set. It waits for in-flight Submits to drain, then
// refuses new ones. On success the session is finalized until Reset. A
// cancelled ctx returns ctx.Err() promptly from the next stage boundary and
// reopens the session, so a timed-out Finalize can be retried (the
// deterministic substreams make the retry produce the identical transcript).
func (s *Session) Finalize(ctx context.Context) (*RunResult, error) {
	s.flight.Lock()
	s.mu.Lock()
	if s.state != sessionOpen {
		st := s.state
		s.mu.Unlock()
		s.flight.Unlock()
		return nil, fmt.Errorf("%w: session is %s", ErrBadConfig, st)
	}
	s.state = sessionFinalizing
	// The board is every member in order; the roster, the ones whose
	// verdicts accepted them. Every recorded verdict goes in the result:
	// payload-refused clients never reached the board, but their reasons
	// still belong there.
	board := make([]*ClientPublic, len(s.order))
	var valid []*sessionClient
	for i, cl := range s.order {
		board[i] = cl.public
		if cl.reject == nil {
			valid = append(valid, cl)
		}
	}
	rejected := maps.Clone(s.rejected)
	rs := s.rs
	epoch := s.epoch
	s.mu.Unlock()
	s.flight.Unlock()

	tr, err := s.prove(ctx, board, valid, rs)
	if err == nil {
		// Seal the epoch: the full public transcript becomes one durable
		// record, sufficient for ResumeSession (skip the epoch) and for
		// AuditLog (re-verify it offline). An unsealable epoch stays open so
		// the deterministic Finalize can be retried once the store recovers.
		if serr := s.appendSeal(epoch, s.pub.EncodeTranscript(tr)); serr != nil {
			s.mu.Lock()
			s.state = sessionOpen
			s.mu.Unlock()
			return nil, serr
		}
	}

	s.mu.Lock()
	if err != nil && ctxErr(ctx) != nil && errors.Is(err, ctxErr(ctx)) {
		s.state = sessionOpen // cancelled, not consumed: allow retry
	} else {
		s.state = sessionFinalized
		s.sealedT = tr
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &RunResult{Release: tr.Release, Transcript: tr, RejectedClients: rejected}, nil
}

// SealedTranscript returns the current epoch's sealed transcript: non-nil
// once Finalize succeeded (or when ResumeSession recovered an epoch that was
// already sealed in the board log), nil again after Reset. The sharded front
// door uses it to re-merge an epoch whose shards sealed before a crash.
func (s *Session) SealedTranscript() *Transcript {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealedT
}

// Reset reopens a finalized session for the next epoch: the client roster
// and verdicts are cleared and the epoch counter advances. A seeded
// session forks an independent child seed per epoch, so epochs never share
// noise substreams while the whole multi-epoch schedule stays reproducible.
// Resetting an open epoch discards its pending submissions.
func (s *Session) Reset() error {
	s.flight.Lock()
	defer s.flight.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == sessionFinalizing {
		return fmt.Errorf("%w: session is finalizing", ErrBadConfig)
	}
	if err := s.appendRecord(RecordReset, s.epoch, nil); err != nil {
		return err
	}
	s.epoch++
	s.rs = s.root.fork(s.epoch)
	s.state = sessionOpen
	s.order = nil
	s.byID = make(map[int]*sessionClient)
	s.rejected = make(map[int]error)
	s.sealedT = nil
	return nil
}

// Compact closes a finalized epoch with a snapshot record instead of a
// Reset: the snapshot pins the sealed epoch's TranscriptDigest and doubles
// as the epoch boundary, so the next restart boots from it — replaying only
// the records appended after the snapshot — while the compacted epoch's
// full evidence stays in the log for offline auditing. Compact requires a
// sealed transcript (a finalized epoch always has one except after a crash
// that lost the seal mid-append; Reset still closes that epoch). On a
// memory-backed session Compact degenerates to Reset.
func (s *Session) Compact() error {
	s.flight.Lock()
	defer s.flight.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != sessionFinalized {
		return fmt.Errorf("%w: only a finalized epoch can be compacted", ErrBadConfig)
	}
	if s.sealedT == nil {
		return fmt.Errorf("%w: epoch %d has no sealed transcript to snapshot", ErrBadConfig, s.epoch)
	}
	digest := TranscriptDigest(s.pub, s.sealedT)
	if err := s.appendRecord(RecordSnapshot, s.epoch, encodeSnapshot(s.epoch, digest)); err != nil {
		return err
	}
	s.epoch++
	s.rs = s.root.fork(s.epoch)
	s.state = sessionOpen
	s.order = nil
	s.byID = make(map[int]*sessionClient)
	s.rejected = make(map[int]error)
	s.sealedT = nil
	return nil
}
