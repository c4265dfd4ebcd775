package vdp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/store"
	"repro/internal/wire"
)

// Board-log grammar: the one interpreter of the session record stream.
//
// Every party that reads a board log — the restarting server
// (ResumeSession), the offline auditor (AuditLog) and the live tail
// (TailAuditor) — feeds its records through a boardGrammar and acts on the
// events it emits; the two auditors hand them on to one epochVerifier. Every
// accept/reject rule of the record grammar lives in feed below and nowhere
// else, so the three readers cannot disagree about which logs a Session can
// have written: a log one of them refuses, all of them refuse, at the same
// record. To change a rule, change it here.
//
// The machine keeps only what the rules need: the current epoch, per-client
// verdict state and board order, the budget-charge chain, and the seal being
// assembled. What a reader wants beyond that (decoded payloads to re-admit,
// Σ-OR verdicts to cross-check) it keeps itself, keyed by client ID.

// eventKind says what a consumed record means to the reader.
type eventKind uint8

const (
	// evNone: the record was legal and carries nothing to act on (a budget
	// charge, a seal chunk that does not complete its seal).
	evNone eventKind = iota
	// evSubmission: client joined the board order. A retry that supersedes an
	// undecided earlier submission of the same ID (its withdrawal record was
	// lost) emits a fresh client; the earlier one has left the roster.
	evSubmission
	// evVerdict: client is now decided; an off-board verdict (payload dispute
	// or budget refusal) also removed it from the roster, ID still reserved.
	evVerdict
	// evWithdraw: the undecided client left the roster and released its ID.
	evWithdraw
	// evSeal: the epoch is sealed; seal is the (assembled) transcript
	// encoding, already checked position by position against the roster.
	evSeal
	// evBoundary: a Reset or Snapshot closed the epoch; the next one is open.
	evBoundary
)

// boardEvent is what feed hands the reader for one legal record.
type boardEvent struct {
	kind   eventKind
	client *boardClient      // evSubmission, evVerdict, evWithdraw
	sub    *ClientSubmission // evSubmission, nil when the record was skimmed
	seal   []byte            // evSeal
}

// boardClient is the grammar's per-client state for the open epoch.
type boardClient struct {
	id int
	// sum is SHA-256 of the ClientPublic bytes exactly as logged (zero when
	// skimmed): what the seal is compared against, without pinning every
	// submission record in memory for the length of the epoch.
	sum     [sha256.Size]byte
	index   int   // record index of the submission
	decided bool  // a verdict record landed
	reject  error // that verdict's rejection, rehydrated; nil = accepted
	onBoard bool  // that verdict left the public part on the board
	refused bool  // that verdict was a budget refusal (never charged)
}

// boardLogError locates a grammar violation — or a failed verification a
// reader attributes to a record — at the first divergent record. Audit and
// tail readers get errors that wrap ErrAuditFail; recovery gets plain ones.
type boardLogError struct {
	Index  int   // record index in the log
	Offset int64 // byte offset of the record, -1 when the reader has none
	Epoch  int   // the epoch the machine was in
	Reason string
	audit  bool
}

func (e *boardLogError) Error() string {
	prefix, at := "vdp", fmt.Sprintf("record %d", e.Index)
	if e.audit {
		prefix = ErrAuditFail.Error()
	}
	if e.Offset >= 0 {
		at = fmt.Sprintf("record %d (offset %d)", e.Index, e.Offset)
	}
	return fmt.Sprintf("%s: board log %s, epoch %d: %s", prefix, at, e.Epoch, e.Reason)
}

func (e *boardLogError) Unwrap() error {
	if e.audit {
		return ErrAuditFail
	}
	return nil
}

// boardGrammar is the incremental state machine. Feed it every record of
// one board log in append order; the first violation is returned as a
// boardLogError and sticks — later calls return it again without consuming.
type boardGrammar struct {
	pub   *Public
	audit bool // errors wrap ErrAuditFail

	// Optional shard pin: every submission must belong to shard shardIdx of
	// shardCount under ShardOf, so a curator cannot seat a client on a
	// segment of its choosing (or, ShardOf being a function, on two).
	shardIdx, shardCount int

	// ledger replays the budget-charge chain across epochs (budgets are
	// lifetime state). Chain integrity is always enforced; the charging
	// policy too when the reader knows it (ledger.cfg non-nil).
	ledger *budgetLedger

	epoch   int
	clients map[int]*boardClient // every ID reserved this epoch
	roster  []*boardClient       // the board order: clients the seal must list
	// charging records that the ledger was in force this epoch (a charge or
	// a budget refusal appeared), so even a reader ignorant of the policy
	// holds the seal to "every admitted client was charged".
	charging bool
	sealed   bool
	seal     []byte // sealed transcript of the current epoch, when fed in full
	chunks   sealAssembly

	index  int // position of the record in flight, for errorf
	offset int64
	err    error // the sticky first violation
}

// newBoardGrammar starts a machine at epoch 0 of an empty log. budget may be
// nil (chain verification only). audit selects ErrAuditFail-wrapped errors.
func newBoardGrammar(pub *Public, budget *BudgetConfig, audit bool) *boardGrammar {
	return &boardGrammar{
		pub:        pub,
		audit:      audit,
		shardCount: 1,
		ledger:     newBudgetLedger(budget),
		clients:    make(map[int]*boardClient),
	}
}

// submissionDecode is what DecodeClientSubmission made of one submission
// record's payload. Decoding is the expensive, order-free part of reading a
// record in full, so a reader may have done it ahead of the grammar, on
// another goroutine; what the result means stays with step.
type submissionDecode struct {
	sub *ClientSubmission
	err error
}

// decodeSubmission decodes rec's payload if rec is a submission record.
func (p *Public) decodeSubmission(rec *store.Record) (d submissionDecode) {
	if rec.Kind == RecordSubmission {
		d.sub, d.err = p.DecodeClientSubmission(rec.Payload)
	}
	return d
}

// Feed consumes one record in full: submissions are decoded, the seal is
// checked against the roster, a snapshot against the seal it pins.
func (g *boardGrammar) Feed(rec *store.Record, index int, offset int64) (boardEvent, error) {
	if g.err != nil {
		return boardEvent{}, g.err // a machine that refused its log decodes nothing more
	}
	return g.feed(rec, index, offset, true, g.pub.decodeSubmission(rec))
}

// Skim consumes one record enforcing the same grammar but none of the
// evidence checks that cost a decode: the client ID is peeked off the
// submission's fixed offset, the seal is not compared with the roster and a
// snapshot's digest is taken on trust. Readers use it for the epochs they
// are not asked about — AuditLog for every epoch but the audited one,
// ResumeSession for everything a snapshot vouches for.
func (g *boardGrammar) Skim(rec *store.Record, index int, offset int64) error {
	_, err := g.feed(rec, index, offset, false, submissionDecode{})
	return err
}

// errorf stamps a failure with the position of the record in flight.
func (g *boardGrammar) errorf(format string, args ...any) error {
	return g.position().because(format, args...)
}

// position is where the record in flight sits, kept by a reader that judges
// the record later.
func (g *boardGrammar) position() boardLogError {
	return boardLogError{Index: g.index, Offset: g.offset, Epoch: g.epoch, audit: g.audit}
}

// because is the failure at this position.
func (e boardLogError) because(format string, args ...any) error {
	e.Reason = fmt.Sprintf(format, args...)
	return &e
}

// drop splices a client out of the board order; its ID stays reserved
// unless the caller also deletes it from clients.
func (g *boardGrammar) drop(cl *boardClient) {
	for i, c := range g.roster {
		if c == cl {
			g.roster = append(g.roster[:i], g.roster[i+1:]...)
			return
		}
	}
}

// nextEpoch opens the epoch after a Reset or Snapshot boundary.
func (g *boardGrammar) nextEpoch() {
	g.epoch++
	g.clients = make(map[int]*boardClient)
	g.roster = nil
	g.charging = false
	g.sealed = false
	g.seal = nil
	g.chunks = sealAssembly{}
}

// decodeAhead is how many records of a stretch read in full replay buffers
// before it decodes their submissions on the pool and feeds them on. A var
// so tests can shrink it to put a window boundary anywhere on a small board.
var decodeAhead = 256

// replay reads a whole log through the machine: the records full selects
// are fed in full, every other one skimmed, and on is handed the event of
// each record fed in full. Decoding a submission is most of the cost of
// reading it and needs no state, so the records fed in full are buffered a
// window at a time, decoded on up to workers goroutines, and only then fed —
// in log order, by this goroutine, so the first violation and its position
// are what a record-by-record Feed would have reported.
func (g *boardGrammar) replay(ctx context.Context, log store.BoardLog, workers int,
	full func(i int, rec *store.Record) bool, on func(boardEvent) error) error {
	var (
		window []*store.Record
		first  int // log index of window[0]
	)
	flush := func() error {
		decs := make([]submissionDecode, len(window))
		if err := forEach(ctx, workers, len(window), func(k int) error {
			decs[k] = g.pub.decodeSubmission(window[k])
			return nil
		}); err != nil {
			return err
		}
		for k, rec := range window {
			ev, err := g.feed(rec, first+k, -1, true, decs[k])
			if err == nil {
				err = on(ev)
			}
			if err != nil {
				return err
			}
		}
		window = window[:0]
		return nil
	}
	i := -1
	take := func(rec *store.Record) error {
		i++
		if !full(i, rec) {
			if err := flush(); err != nil {
				return err
			}
			return g.Skim(rec, i, -1)
		}
		if len(window) == 0 {
			first = i
		}
		window = append(window, rec)
		if len(window) >= decodeAhead {
			return flush()
		}
		return nil
	}
	var stopped error
	err := log.Replay(func(rec *store.Record) error {
		stopped = take(rec)
		return stopped
	})
	if stopped != nil {
		return err
	}
	// The log ended, or the store failed under it: the records it did hand
	// over are judged first, as they would have been one by one.
	if ferr := flush(); ferr != nil {
		return ferr
	}
	return err
}

func (g *boardGrammar) feed(rec *store.Record, index int, offset int64, full bool, dec submissionDecode) (boardEvent, error) {
	if g.err != nil {
		return boardEvent{}, g.err
	}
	g.index, g.offset = index, offset
	ev, err := g.step(rec, full, dec)
	if err != nil {
		g.err = err
	}
	return ev, err
}

// step is the grammar. Each rule names the Session behaviour that makes it
// safe: a log that breaks one was not written by a Session. dec is the
// decode of a submission record being read in full, unused otherwise.
func (g *boardGrammar) step(rec *store.Record, full bool, dec submissionDecode) (boardEvent, error) {
	none := boardEvent{}
	if int(rec.Epoch) != g.epoch {
		return none, g.errorf("kind %d belongs to epoch %d, current epoch is %d", rec.Kind, rec.Epoch, g.epoch)
	}
	// Finalize drains in-flight Submits before sealing, so a sealed epoch
	// takes nothing but the Reset or Snapshot that closes it.
	if g.sealed && rec.Kind != RecordReset && rec.Kind != RecordSnapshot {
		return none, g.errorf("kind %d after epoch %d was sealed", rec.Kind, g.epoch)
	}
	// A seal whose chunk loop died part-way (TestFaultInjectionTornChunkedSeal:
	// the store fails on chunk 1, the epoch reopens, a late client is
	// admitted, Finalize retries from chunk 0) leaves an abandoned prefix
	// followed by ordinary records. That is an honest log, so the abandoned
	// chunks are forgotten rather than refused — and a record spliced INTO a
	// seal is still caught, one record later, because the chunk that tries to
	// continue past it no longer has a sequence to extend.
	if g.chunks.inProgress() && rec.Kind != RecordSealChunk {
		g.chunks = sealAssembly{}
	}

	switch rec.Kind {
	case RecordSubmission:
		r := versioned(rec.Payload)
		raw := r.Blob()
		if err := r.Err(); err != nil {
			return none, g.errorf("submission: %v", err)
		}
		var (
			sub *ClientSubmission
			sum [sha256.Size]byte
			id  int
			err error
		)
		if full {
			if sub, err = dec.sub, dec.err; err == nil {
				id, sum = sub.Public.ID, sha256.Sum256(raw)
			}
		} else {
			id, err = peekClientPublicID(raw)
		}
		if err != nil {
			return none, g.errorf("submission: %v", err)
		}
		if want := ShardOf(id, g.shardCount); want != g.shardIdx {
			return none, g.errorf("client %d belongs to shard %d, not shard %d", id, want, g.shardIdx)
		}
		if prev, dup := g.clients[id]; dup {
			if prev.decided {
				return none, g.errorf("duplicate submission from decided client %d", id)
			}
			// Undecided earlier submission + retry: the earlier one was
			// withdrawn live but its withdrawal record was lost (withdrawals
			// are best-effort — they compensate for a store already failing).
			// The session could only admit the retry with the original gone,
			// so the retry supersedes it.
			g.drop(prev)
		}
		cl := &boardClient{id: id, sum: sum, index: g.index}
		g.clients[id] = cl
		g.roster = append(g.roster, cl)
		return boardEvent{kind: evSubmission, client: cl, sub: sub}, nil

	case RecordVerdict:
		id, reject, onBoard, err := decodeVerdict(rec.Payload)
		if err != nil {
			return none, g.errorf("verdict: %v", err)
		}
		cl, ok := g.clients[id]
		if !ok {
			return none, g.errorf("verdict for unknown client %d", id)
		}
		if cl.decided {
			// A session writes exactly one verdict per admitted submission; a
			// second one is an attempt to flip an already-public outcome.
			return none, g.errorf("second verdict for client %d", id)
		}
		if reject == nil && !onBoard {
			// Acceptance means every check passed, and passing clients are
			// posted.
			return none, g.errorf("client %d accepted but marked off-board — no session writes this", id)
		}
		refused := reject != nil && !onBoard && isBudgetRefusalReason(reject.Error())
		if refused {
			// A budget refusal is decided before any charge or verification.
			if g.ledger.chargedInEpoch(g.epoch, id) {
				return none, g.errorf("client %d refused over budget after being charged this epoch", id)
			}
			if cfg := g.ledger.cfg; cfg != nil && g.ledger.spent[id]+cfg.EpochCost <= cfg.Total {
				// A server claiming exhaustion for a client whose spend
				// affords another epoch is suppressing data.
				return none, g.errorf("client %d refused over budget, but its replayed spend (%d of %d µε) affords another epoch",
					id, g.ledger.spent[id], cfg.Total)
			}
			g.charging = true
		}
		cl.decided, cl.reject, cl.onBoard, cl.refused = true, reject, onBoard, refused
		if !onBoard {
			g.drop(cl)
		}
		return boardEvent{kind: evVerdict, client: cl}, nil

	case RecordWithdraw:
		id, err := decodeWithdraw(rec.Payload)
		if err != nil {
			return none, g.errorf("withdrawal: %v", err)
		}
		cl, ok := g.clients[id]
		if !ok {
			return none, g.errorf("withdrawal of unknown client %d", id)
		}
		if cl.decided {
			// A session only withdraws clients whose verification never
			// completed; this is a forgery trying to erase a decided client.
			return none, g.errorf("withdrawal of decided client %d (verdict already on the board)", id)
		}
		delete(g.clients, id)
		g.drop(cl)
		return boardEvent{kind: evWithdraw, client: cl}, nil

	case RecordBudgetCharge:
		id, chEpoch, _, _, _, err := decodeBudgetCharge(rec.Payload)
		if err != nil {
			return none, g.errorf("budget charge: %v", err)
		}
		if chEpoch != g.epoch {
			return none, g.errorf("budget charge pins epoch %d, current epoch is %d", chEpoch, g.epoch)
		}
		cl, ok := g.clients[id]
		if !ok {
			// The charge follows the client's submission record in the same
			// commit window.
			return none, g.errorf("budget charge for unknown client %d", id)
		}
		if cl.refused {
			return none, g.errorf("budget charge for client %d, which was refused over budget", id)
		}
		if err := g.ledger.apply(rec.Payload); err != nil {
			return none, g.errorf("%v", err)
		}
		g.charging = true
		return none, nil

	case RecordSeal:
		return g.sealEpoch(rec.Payload, full)

	case RecordSealChunk:
		done, err := g.chunks.add(rec.Payload)
		if err != nil {
			return none, g.errorf("%v", err)
		}
		if done == nil {
			return none, nil
		}
		return g.sealEpoch(done, full)

	case RecordReset:
		g.nextEpoch()
		return boardEvent{kind: evBoundary}, nil

	case RecordSnapshot:
		if !g.sealed {
			return none, g.errorf("snapshot of epoch %d, which is not sealed", g.epoch)
		}
		snapEpoch, digest, err := decodeSnapshot(rec.Payload)
		if err != nil {
			return none, g.errorf("snapshot: %v", err)
		}
		if snapEpoch != g.epoch {
			return none, g.errorf("snapshot pins epoch %d, current epoch is %d", snapEpoch, g.epoch)
		}
		if full {
			// Later boots trust this record instead of the evidence before
			// it — it must pin exactly the transcript the log sealed.
			d, err := transcriptDigestFromBytes(g.pub, g.seal)
			if err != nil {
				return none, g.errorf("sealed transcript: %v", err)
			}
			if !bytes.Equal(d, digest) {
				return none, g.errorf("snapshot digest for epoch %d disagrees with its seal", g.epoch)
			}
		}
		g.nextEpoch()
		return boardEvent{kind: evBoundary}, nil

	default:
		return none, g.errorf("unknown kind %d", rec.Kind)
	}
}

// sealEpoch applies the seal-time rules: the charging policy over every
// reserved ID, then the positional cross-check of the sealed client section
// against the log's own arrival records — same clients, same order, same
// bytes. Reordered client blocks, an erased or injected client, a rewritten
// commitment: each moves some position off its logged bytes.
func (g *boardGrammar) sealEpoch(seal []byte, full bool) (boardEvent, error) {
	none := boardEvent{}
	if g.ledger.cfg != nil || g.charging {
		// Admission always charges, before any verification: a client that
		// reaches the seal uncharged was given a free epoch.
		uncharged := -1
		for id, cl := range g.clients {
			if !cl.refused && !g.ledger.chargedInEpoch(g.epoch, id) && (uncharged < 0 || id < uncharged) {
				uncharged = id
			}
		}
		if uncharged >= 0 {
			return none, g.errorf("epoch %d seals with client %d uncharged", g.epoch, uncharged)
		}
	}
	g.sealed = true
	if !full {
		return none, nil
	}
	r := versioned(seal)
	sealed := readSealedClients(&r)
	if err := r.Err(); err != nil {
		return none, g.errorf("seal: %v", err)
	}
	if len(sealed) != len(g.roster) {
		return none, g.errorf("seal lists %d clients, the log admitted %d", len(sealed), len(g.roster))
	}
	for i, raw := range sealed {
		if sha256.Sum256(raw) != g.roster[i].sum {
			return none, g.errorf("seal position %d disagrees with the logged submission of client %d (record %d)",
				i, g.roster[i].id, g.roster[i].index)
		}
	}
	g.seal = seal
	return boardEvent{kind: evSeal, seal: seal}, nil
}

// readSealedClients consumes an encoded transcript's client section, which
// follows the version byte, returning the per-client encodings without
// decoding a group element. It is the client half of the one transcript parser
// (decodeProverSection).
func readSealedClients(r *wire.Reader) [][]byte {
	out := make([][]byte, r.Count(maxWireDim, 4))
	for i := range out {
		out[i] = r.Blob()
	}
	return out
}
