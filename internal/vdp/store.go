package vdp

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"

	"repro/internal/store"
	"repro/internal/wire"
)

// Durable bulletin board: the session's integration with internal/store.
//
// A Session given SessionOptions.Store appends every admitted submission and
// every per-client verdict to the board log at Submit time, seals the full
// transcript at Finalize, and marks epoch boundaries at Reset. ResumeSession
// replays that log to reconstruct the session after a crash, so a restarted
// server continues the same epoch — with the same roster, in the same board
// order — and finalizes to a byte-identical TranscriptDigest (given the same
// seed). AuditLog lets a third party audit a sealed epoch offline from the
// log alone.
//
// Record layout (store.Record.Kind):
//
//	RecordSubmission  payload = EncodeClientSubmission, the client's frame
//	                   bytes: public + K payloads + (v2) point hints (wirelog.go)
//	RecordVerdict     payload = client ID, accepted, on-board, reason
//	RecordWithdraw    payload = client ID (cancelled mid-verification)
//	RecordSeal        payload = EncodeTranscript, the epoch's full board:
//	                   clients + prover section + (v2) the prover section's
//	                   point hints (wirelog.go)
//	RecordSealChunk   payload = index, total, piece (oversized seal split)
//	RecordReset       payload = empty (epoch closed by Reset)
//	RecordSnapshot    payload = epoch, TranscriptDigest (epoch compacted)
//	RecordBudgetCharge payload = client, epoch, amount, cumulative, chain
//	                   digest (privacy-budget debit; see ledger.go)
//
// Submission records are appended while the session's reservation lock is
// held, so log order always equals board order — that is what makes the
// recovered transcript byte-identical rather than merely equivalent.
const (
	RecordSubmission uint8 = 1
	RecordVerdict    uint8 = 2
	RecordSeal       uint8 = 3
	RecordReset      uint8 = 4
	RecordWithdraw   uint8 = 5
	// RecordSealChunk carries one piece of a sealed transcript too large
	// for a single store record (an epoch with very many clients or coins).
	// Chunks are appended in order; the epoch counts as sealed only when
	// the final chunk lands, and a chunk with index 0 restarts assembly (a
	// crash mid-seal leaves a partial sequence that the Finalize retry
	// supersedes).
	RecordSealChunk uint8 = 6
	// RecordSnapshot compacts a sealed epoch: its payload pins the epoch's
	// TranscriptDigest, and the record doubles as the epoch boundary (no
	// RecordReset follows — the snapshot is the boundary). Boot-time replay
	// stops decoding at the last snapshot and reconstructs only the records
	// after it, while the full evidence stays in the log for AuditLog to
	// verify offline. Session.Compact writes it; a snapshot of an unsealed
	// epoch, or one whose digest disagrees with the seal it follows, is a
	// grammar violation.
	RecordSnapshot uint8 = 8
)

// encodeSnapshot serializes a snapshot record body.
func encodeSnapshot(epoch int, digest []byte) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(epoch))
	w.Blob(digest)
	return w.Bytes()
}

// decodeSnapshot parses a snapshot record body.
func decodeSnapshot(b []byte) (epoch int, digest []byte, err error) {
	r := versioned(b)
	epoch = int(r.U32())
	digest = r.Blob()
	if err := r.Finish(); err != nil {
		return 0, nil, err
	}
	if len(digest) != sha256.Size {
		return 0, nil, fmt.Errorf("vdp: snapshot digest is %d bytes, want %d", len(digest), sha256.Size)
	}
	return epoch, digest, nil
}

// lastSnapshotIndex scans a board log for the record index of its newest
// snapshot, -1 when it holds none. The scan reads frames and decodes
// nothing; the grammar validates the snapshot record itself.
func lastSnapshotIndex(log store.BoardLog) (int, error) {
	last, i := -1, -1
	err := log.Replay(func(rec *store.Record) error {
		i++
		if rec.Kind == RecordSnapshot {
			last = i
		}
		return nil
	})
	return last, err
}

// sealChunkSize caps one seal record's payload. It sits well under the
// store's per-record decode limit; a var so tests can shrink it to exercise
// chunked assembly without gigabyte transcripts.
var sealChunkSize = 16 << 20

// encodeSealChunk serializes one piece of an oversized seal.
func encodeSealChunk(index, total int, piece []byte) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(index))
	w.U32(uint32(total))
	w.Raw(piece)
	return w.Bytes()
}

// decodeSealChunk parses a seal-chunk record body.
func decodeSealChunk(b []byte) (index, total int, piece []byte, err error) {
	r := versioned(b)
	index = int(r.U32())
	total = int(r.U32())
	piece = r.Rest()
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	if total < 1 || index < 0 || index >= total {
		return 0, 0, nil, fmt.Errorf("vdp: seal chunk %d of %d out of range", index, total)
	}
	return index, total, piece, nil
}

// sealAssembly accumulates seal chunks during replay.
type sealAssembly struct {
	total  int
	next   int
	pieces [][]byte
}

// inProgress reports whether a chunk sequence has started but not finished.
func (a *sealAssembly) inProgress() bool { return a.total > 0 && a.next < a.total }

// add folds one chunk in, returning the completed seal payload once the
// final chunk lands (nil otherwise). A chunk with index 0 restarts the
// assembly; an out-of-sequence chunk is a grammar violation.
func (a *sealAssembly) add(body []byte) ([]byte, error) {
	index, total, piece, err := decodeSealChunk(body)
	if err != nil {
		return nil, err
	}
	if index == 0 {
		a.total, a.next, a.pieces = total, 0, nil
	}
	if total != a.total || index != a.next {
		return nil, fmt.Errorf("vdp: seal chunk %d of %d arrived out of sequence (expected %d of %d)",
			index, total, a.next, a.total)
	}
	a.pieces = append(a.pieces, piece)
	a.next++
	if a.next < a.total {
		return nil, nil
	}
	var out []byte
	for _, p := range a.pieces {
		out = append(out, p...)
	}
	a.total, a.next, a.pieces = 0, 0, nil
	return out, nil
}

// appendSeal persists a sealed transcript, splitting it across chunk
// records when it exceeds one store record's capacity.
func (s *Session) appendSeal(epoch int, payload []byte) error {
	if len(payload) <= sealChunkSize {
		return s.appendRecord(RecordSeal, epoch, payload)
	}
	total := (len(payload) + sealChunkSize - 1) / sealChunkSize
	for i := 0; i < total; i++ {
		lo := i * sealChunkSize
		hi := lo + sealChunkSize
		if hi > len(payload) {
			hi = len(payload)
		}
		if err := s.appendRecord(RecordSealChunk, epoch, encodeSealChunk(i, total, payload[lo:hi])); err != nil {
			return err
		}
	}
	return nil
}

// encodeVerdict serializes a per-client verdict record body.
func encodeVerdict(id int, reject error, onBoard bool) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(id))
	reason := ""
	if reject != nil {
		reason = reject.Error()
	}
	w.Bool(reject == nil)
	w.Bool(onBoard)
	w.Blob([]byte(reason))
	return w.Bytes()
}

// decodeVerdict parses a verdict record body. A recorded rejection is
// rehydrated as an ErrClientReject-wrapped error with the original reason,
// so errors.Is checks behave identically before and after a restart. Only
// what encodeVerdict writes is accepted: an acceptance carries no reason, and
// a rejection's reason is ErrClientReject's text, alone or wrapping a detail.
func decodeVerdict(b []byte) (id int, reject error, onBoard bool, err error) {
	r := versioned(b)
	id = int(r.U32())
	accepted, onBoard := r.Bool(), r.Bool()
	reason := string(r.Blob())
	if ferr := r.Finish(); ferr != nil {
		return 0, nil, false, ferr
	}
	detail, wrapped := strings.CutPrefix(reason, ErrClientReject.Error()+": ")
	switch {
	case accepted && reason != "":
		return 0, nil, false, fmt.Errorf("vdp: accepted verdict carries the reason %q", reason)
	case accepted:
	case reason == ErrClientReject.Error():
		reject = ErrClientReject
	case wrapped:
		reject = fmt.Errorf("%w: %s", ErrClientReject, detail)
	default:
		return 0, nil, false, fmt.Errorf("vdp: verdict reason %q is not a client rejection", reason)
	}
	return id, reject, onBoard, nil
}

// encodeWithdraw serializes a withdraw record body.
func encodeWithdraw(id int) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(id))
	return w.Bytes()
}

// decodeWithdraw parses a withdraw record body.
func decodeWithdraw(b []byte) (int, error) {
	r := versioned(b)
	id := int(r.U32())
	if err := r.Finish(); err != nil {
		return 0, err
	}
	return id, nil
}

// appendRecord persists one record for the session's current epoch. A nil
// store is a no-op (the in-memory default).
func (s *Session) appendRecord(kind uint8, epoch int, payload []byte) error {
	if s.opts.Store == nil {
		return nil
	}
	if err := s.opts.Store.Append(&store.Record{Kind: kind, Epoch: uint32(epoch), Payload: payload}); err != nil {
		return fmt.Errorf("vdp: board log append: %w", err)
	}
	return nil
}

// appendRecordOrdered writes one record in log order without forcing it to
// stable storage: the ordered write happens inside the roster lock (log
// order must equal board order), while the expensive durability flush is
// deferred to a syncStore outside it, so concurrent Submits share one
// group-commit flush instead of serializing a flush each. The caller must
// follow up with syncStore before acknowledging the record.
func (s *Session) appendRecordOrdered(kind uint8, epoch int, payload []byte) error {
	if s.opts.Store == nil {
		return nil
	}
	if err := s.opts.Store.AppendNoSync(&store.Record{Kind: kind, Epoch: uint32(epoch), Payload: payload}); err != nil {
		return fmt.Errorf("vdp: board log append: %w", err)
	}
	return nil
}

// syncStore makes every record appended so far durable.
func (s *Session) syncStore() error {
	if s.opts.Store == nil {
		return nil
	}
	if err := s.opts.Store.Sync(); err != nil {
		return fmt.Errorf("vdp: board log sync: %w", err)
	}
	return nil
}

// ResumeSession reconstructs a session from its board log after a restart.
// The log is replayed to the last epoch boundary: sealed and reset epochs
// are skipped over, and the final epoch's submissions are re-admitted in
// their original board order. Submissions whose verdicts were persisted are
// installed verbatim; submissions that never got one (the process died
// between the submission append and the verdict append) are re-verified now
// — on the session pool, with the same checks Submit would have run — and
// their recovered verdicts are appended to the log. The resumed session
// therefore finalizes to the exact TranscriptDigest an uninterrupted run
// would have produced (byte-identical when opts.Rand carries the original
// seed).
//
// If the last epoch in the log is already sealed, the session resumes in the
// finalized state: call Reset to open the next epoch. opts.Store must be the
// replayed log; it receives all further records.
func ResumeSession(ctx context.Context, pub *Public, opts SessionOptions) (*Session, error) {
	if opts.Shards > 1 || opts.Segmented != nil {
		return nil, fmt.Errorf("%w: a sharded session is recovered with ResumeShardedSession", ErrBadConfig)
	}
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	return resumeSessionFromSource(ctx, pub, opts, root, 0, 1)
}

// resumeSessionFromSource is ResumeSession over an already-derived root
// randomness source, for a log that is shard `shard` of `shards`:
// ResumeShardedSession and ResumeShardSession hand every shard its own fork
// of one root seed and pin its grammar to the clients ShardOf assigns it.
func resumeSessionFromSource(ctx context.Context, pub *Public, opts SessionOptions, root *randSource, shard, shards int) (*Session, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("%w: ResumeSession needs SessionOptions.Store", ErrBadConfig)
	}
	if err := opts.Budget.validate(); err != nil {
		return nil, err
	}
	// Snapshot boot: a compacted log carries a digest-pinned boundary for
	// every sealed-and-compacted epoch, so recovery decodes only the records
	// after the newest one; everything before it is skimmed (grammar and
	// charge chain, no submission decode, no digest recomputed). The skipped
	// evidence stays in the log; AuditLog still verifies it offline.
	snapAt, err := lastSnapshotIndex(opts.Store)
	if err != nil {
		return nil, err
	}
	// The machine's ledger re-verifies every charge link against the
	// configured policy across the whole log (charges are lifetime state);
	// its head is byte-identical to the crashed session's.
	g := newBoardGrammar(pub, opts.Budget, false, shard, shards)
	subs := make(map[int]*ClientSubmission) // the open epoch's payloads, by client
	err = g.replay(ctx, replayed(opts.Store), poolWidth(opts.Parallelism),
		func(i int, _ *store.Record) bool { return i > snapAt },
		func(ev boardEvent) error {
			switch ev.kind {
			case evSubmission:
				subs[ev.client.id] = ev.sub
			case evBoundary:
				subs = make(map[int]*ClientSubmission)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	s := newSessionFromSource(pub, opts, root, shard, shards)
	s.epoch = g.epoch
	s.rs = s.root.fork(g.epoch)
	if g.sealed {
		// The grammar has matched every sealed client block to its arrival
		// record byte for byte, so the transcript takes the clients the
		// replay decoded — as live Finalize takes its board — and only the
		// prover section is decoded here.
		s.state = sessionFinalized
		_, t, err := pub.decodeProverSection(g.seal, poolWidth(opts.Parallelism))
		if err != nil {
			// Nothing but a boundary may follow a seal, so the seal is the
			// record the replay fed last: the refusal names it, as the
			// audit's and the tail's do.
			return nil, g.errorf("seal: %v", err)
		}
		t.Clients = make([]*ClientPublic, len(g.roster))
		for i, cl := range g.roster {
			t.Clients[i] = subs[cl.id].Public
		}
		s.sealedT = t
	}
	if opts.Budget != nil {
		s.ledger = g.ledger
	}

	// install re-admits one client; off the board its ID is only reserved —
	// the public part never reaches the roster, as in live admission.
	install := func(id int, decided bool, reject error, onBoard bool) {
		sc := &sessionClient{public: subs[id].Public, payloads: subs[id].Payloads, decided: decided, reject: reject}
		s.byID[id] = sc
		if reject != nil {
			s.rejected[id] = reject
		}
		if !decided || onBoard {
			s.order = append(s.order, sc)
		}
	}
	for id, cl := range g.clients {
		if cl.decided && !cl.onBoard {
			install(id, true, cl.reject, false) // payload- or budget-refused
		}
	}
	for _, cl := range g.roster {
		id := cl.id
		decided, reject, onBoard := cl.decided, cl.reject, cl.onBoard
		switch {
		case decided || g.sealed:
			// Verdict on record (or the sealed transcript speaks for it).
		case s.ledger != nil && !s.ledger.canCharge(g.epoch, id):
			// The crash interrupted a budget refusal (submission record down,
			// refusal verdict lost). Re-refuse exactly as the live session
			// would have: verdict on the log, ID reserved off-board, no
			// charge, no verification.
			decided, onBoard = true, false
			reject = budgetRefusalError(id, s.ledger.spent[id], s.ledger.cfg.EpochCost, s.ledger.cfg.Total)
			if err := s.appendRecord(RecordVerdict, g.epoch, encodeVerdict(id, reject, false)); err != nil {
				return nil, err
			}
		default:
			if s.ledger != nil {
				// An admitted client without a charge means the crash beat the
				// charge append; converge by charging now, like the live
				// admission would have (a client already charged yields nil).
				if payload, commit := s.ledger.prepareCharge(g.epoch, id); payload != nil {
					if err := s.appendRecord(RecordBudgetCharge, g.epoch, payload); err != nil {
						return nil, err
					}
					commit()
				}
			}
			// The crash hit between the submission and verdict appends.
			// Re-verify with admission's own checks and persist the
			// recovered verdict so the log converges.
			bv, on, err := s.verifyBatch(ctx, []*ClientSubmission{subs[id]})
			if err != nil {
				return nil, fmt.Errorf("vdp: re-verifying client %d during resume: %w", id, err)
			}
			decided, reject, onBoard = true, bv[0], on[0]
			if err := s.appendRecord(RecordVerdict, g.epoch, encodeVerdict(id, reject, onBoard)); err != nil {
				return nil, err
			}
		}
		install(id, decided, reject, onBoard)
	}
	return s, nil
}

// AuditLog audits a sealed epoch offline, from the board log alone: it is
// the live TailAuditor drained to the end of the log in one Replay, so the
// whole log must obey the record grammar, and the audited epoch is read in
// full through the same epoch verifier — every logged verdict held to the
// submission's board proof, the seal's client section equal to the clients
// the log's own arrival records admitted (same order, same bytes), and the
// seal's coin proofs, Morra records, Line-13 products and aggregation
// verified against the product of the accepted clients. Every other epoch
// is skimmed. A log whose per-arrival records disagree with the transcript
// it sealed is rejected even if the transcript verifies in isolation, and
// every refusal names the first divergent record. epoch < 0 selects the
// latest sealed epoch. workers follows the AuditParallel convention (0 =
// all cores) and bounds every stage that is not inherently serial: the
// submission decode, which runs a window of records ahead of the grammar,
// each batched check's multi-exponentiation and the per-prover fan-out at
// the seal.
func AuditLog(ctx context.Context, pub *Public, log store.BoardLog, epoch, workers int) error {
	if epoch < 0 {
		// Resolve "latest sealed" with a cheap seal-only scan before the
		// decoding pass, so auditing never decodes epochs it will not check.
		sealed, err := SealedEpochs(log)
		if err != nil {
			return err
		}
		if len(sealed) == 0 {
			return fmt.Errorf("%w: board log holds no sealed epoch", ErrAuditFail)
		}
		epoch = sealed[len(sealed)-1]
	}
	return newTailAuditor(pub, TailOptions{Workers: workers}, shardSegments, 0, 1, auditWindow).audit(ctx, log, epoch)
}

// scanSeals streams every completed seal of a board log — a seal record, or
// the final chunk of a split one — to fn, interpreting nothing else.
func scanSeals(log store.BoardLog, fn func(epoch int, seal []byte)) error {
	assemblies := make(map[int]*sealAssembly)
	return log.Replay(func(rec *store.Record) error {
		epoch := int(rec.Epoch)
		switch rec.Kind {
		case RecordSeal:
			fn(epoch, rec.Payload)
		case RecordSealChunk:
			a := assemblies[epoch]
			if a == nil {
				a = &sealAssembly{}
				assemblies[epoch] = a
			}
			done, err := a.add(rec.Payload)
			if err != nil {
				return err
			}
			if done != nil {
				fn(epoch, done)
			}
		}
		return nil
	})
}

// SealedEpochs returns the epochs a board log has sealed, in order. A
// chunk-split seal counts once its final chunk lands.
func SealedEpochs(log store.BoardLog) ([]int, error) {
	var out []int
	err := scanSeals(log, func(epoch int, _ []byte) { out = append(out, epoch) })
	return out, err
}

// errLogNotEmpty distinguishes "the store already holds records" inside
// NewSession's emptiness probe.
var errLogNotEmpty = errors.New("vdp: board log is not empty")
