package vdp

import (
	"context"
	"fmt"

	"repro/internal/wire"
)

// Admission: the one path from an arrival to the board.
//
// Every accept/reject rule of the write side — the shard pin, duplicate
// screening, budget refusal, the charge append, the group-commit window,
// verdict install and every rollback — lives in Session.SubmitBatch and
// nowhere else. A single arrival is a batch of one (Session.Submit wraps
// it); a frame of N pays the same fixed costs once, which is where the RLC
// batch verification (sigma.BitBatch + group.NativeMultiExp) earns its
// advantage:
//
//   - EncodeSubmissionBatch / DecodeSubmissionBatch: a versioned wire body
//     holding N full client submissions, the payload of one "submit-batch"
//     transport frame. A one-per-frame "submit" body is a single such
//     record, so both kinds carry every prover's payload.
//   - Session.SubmitBatch: admits the whole batch under ONE roster-lock
//     acquisition, persists it inside ONE group-commit fsync window, and
//     verifies every board proof with ONE combined Σ-OR batch check — with
//     the fsync and the multi-exponentiation running concurrently. Verdicts
//     are per-client and independent of how arrivals were framed, so
//     board-reject semantics, log grammar, and transcript digests do not
//     depend on batch size.
//   - ShardedSession.SubmitBatch: splits a batch by ShardOf and runs the
//     per-shard sub-batches concurrently.
//   - BatchVerdict (+ codecs): the per-client outcomes the server sends back
//     in the reply frame.

// MaxBatchClients bounds the number of submissions one batch frame may
// claim, so a hostile count prefix cannot force an unbounded allocation and
// one peer cannot monopolise an admission window. Senders with more clients
// split across frames.
const MaxBatchClients = 4096

// EncodeSubmissionBatch serializes a batch of full client submissions as
// one wire body: version | u32 count | count × blob(submission record).
// Each inner record is exactly EncodeClientSubmission's encoding, hints
// included.
func (p *Public) EncodeSubmissionBatch(subs []*ClientSubmission) []byte {
	return p.AppendSubmissionBatch(nil, subs)
}

// AppendSubmissionBatch is EncodeSubmissionBatch writing into dst (grown as
// needed), so a flooding sender reuses one buffer across frames instead of
// allocating a fresh multi-megabyte encoding per batch.
func (p *Public) AppendSubmissionBatch(dst []byte, subs []*ClientSubmission) []byte {
	w := wire.NewWriter(dst[:0])
	w.U8(WireVersion)
	w.U32(uint32(len(subs)))
	for _, sub := range subs {
		mark := w.Mark()
		w = wire.NewWriter(p.appendClientSubmission(w.Bytes(), sub))
		w.Patch(mark)
	}
	return w.Bytes()
}

// DecodeSubmissionBatch parses and validates a batch frame body. Every
// inner submission is fully validated (group membership, canonical scalars,
// every point hint) exactly as the single-submission decoder would; one
// malformed member fails the whole decode — the sender is speaking the
// protocol wrong, which is different from a well-formed member whose *proof*
// is wrong (that one decodes fine and earns its rejection verdict from
// SubmitBatch).
func (p *Public) DecodeSubmissionBatch(b []byte) ([]*ClientSubmission, error) {
	r := versioned(b)
	subs := blobs(&r, MaxBatchClients, p.DecodeClientSubmission)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return subs, nil
}

// BatchVerdict is one client's outcome in the reply to a batch frame.
type BatchVerdict struct {
	ID       int
	Accepted bool
	Reason   string // rejection reason; empty when accepted
}

// VerdictsFor pairs SubmitBatch's per-slot errors back with the submissions
// they belong to, producing the reply-frame form. A nil submission slot
// reports ID -1.
func VerdictsFor(subs []*ClientSubmission, errs []error) []BatchVerdict {
	out := make([]BatchVerdict, len(subs))
	for i := range subs {
		out[i].ID = -1
		if subs[i] != nil && subs[i].Public != nil {
			out[i].ID = subs[i].Public.ID
		}
		if i < len(errs) && errs[i] != nil {
			out[i].Reason = errs[i].Error()
		} else {
			out[i].Accepted = true
		}
	}
	return out
}

// EncodeBatchVerdicts serializes per-client verdicts for the reply frame:
// version | u32 count | count × (u32 id | bool accepted | blob reason).
func EncodeBatchVerdicts(vs []BatchVerdict) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U32(uint32(v.ID))
		w.Bool(v.Accepted)
		w.Blob([]byte(v.Reason))
	}
	return w.Bytes()
}

// DecodeBatchVerdicts parses a verdict reply body.
func DecodeBatchVerdicts(b []byte) ([]BatchVerdict, error) {
	r := versioned(b)
	out := make([]BatchVerdict, r.Count(MaxBatchClients, 4+1+4))
	for i := range out {
		out[i] = BatchVerdict{ID: int(int32(r.U32())), Accepted: r.Bool(), Reason: string(r.Blob())}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitBatch admits a whole arrival batch into the current epoch:
// duplicate screening and board-order reservation for every member happen
// under one roster-lock acquisition, all submission records land inside one
// group-commit fsync window, and every member's board proof folds into a
// single combined Σ-OR batch check (one native multi-exponentiation) that
// runs concurrently with the fsync. The returned slice holds one verdict
// per submission, aligned with subs: nil admits the client to the roster; an
// ErrClientReject-wrapped error records the rejection. A client whose *board
// proof* fails still appears on the bulletin board with its public verdict; a
// client whose *payload* fails (bad or missing share openings — a
// private-channel dispute) is refused outright and never posted, keeping the
// transcript publicly auditable; a client the budget ledger cannot charge is
// refused the same way, uncharged. Nil members, members ShardOf assigns to
// another shard than the session's, and duplicates — against the roster or
// earlier in the same batch — fail without being recorded. Concurrent calls
// are safe and verdict-equivalent to any serial order of the same arrivals.
//
// A non-nil error reports a batch-level failure, and outranks every verdict:
// no member may be acknowledged. When verdicts is nil the batch was not
// admitted at all (closed session, cancelled ctx, or a store failure before
// any verdict was computed; every reservation without a verdict record was
// withdrawn, so a retry is not a duplicate). When verdicts is non-nil
// alongside the error, the board reflects the verdicts but the store is
// failing: members whose verdict record could not be written in order were
// withdrawn again (their slots carry the error), and the epoch cannot seal
// until the store recovers. A verdict record that was written but whose flush
// or mirror failed is never withdrawn — a withdrawal after a verdict is not
// in the board grammar — so a retry of that member meets the duplicate guard.
func (s *Session) SubmitBatch(ctx context.Context, subs []*ClientSubmission) ([]error, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	s.flight.RLock()
	defer s.flight.RUnlock()

	// Encode every durable arrival record outside the roster lock, into
	// pooled buffers: both BoardLog implementations copy the payload inside
	// Append, so the scratch recycles once the ordered writes are in. Each
	// is the submission's one encoding, its points' hints included.
	var recs [][]byte
	var bufs []*[]byte
	if s.opts.Store != nil {
		recs = make([][]byte, len(subs))
		for i, sub := range subs {
			if sub == nil || sub.Public == nil {
				continue
			}
			buf := getWireBuf()
			*buf = s.pub.appendClientSubmission((*buf)[:0], sub)
			recs[i] = *buf
			bufs = append(bufs, buf)
		}
		defer func() {
			for _, b := range bufs {
				putWireBuf(b)
			}
		}()
	}

	// One roster-lock acquisition reserves the whole batch: duplicate
	// screening, board-order append, and the ordered (not-yet-synced) log
	// writes — so log order equals board order for every member, the property
	// that makes a recovered transcript byte-identical.
	verdicts := make([]error, len(subs))
	admitted := make([]*sessionClient, 0, len(subs))
	admittedIdx := make([]int, 0, len(subs))
	s.mu.Lock()
	if s.state != sessionOpen {
		st := s.state
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: session is %s", ErrBadConfig, st)
	}
	epoch := s.epoch
	var aerr error
	for i, sub := range subs {
		if sub == nil || sub.Public == nil {
			verdicts[i] = fmt.Errorf("%w: nil submission", ErrClientReject)
			continue
		}
		if got := ShardOf(sub.Public.ID, s.shards); got != s.shard {
			verdicts[i] = fmt.Errorf("%w: client %d belongs to shard %d, this node serves shard %d",
				ErrClientReject, sub.Public.ID, got, s.shard)
			continue
		}
		if _, dup := s.byID[sub.Public.ID]; dup {
			verdicts[i] = fmt.Errorf("%w: duplicate submission from client %d", ErrClientReject, sub.Public.ID)
			continue
		}
		if s.ledger != nil && !s.ledger.canCharge(epoch, sub.Public.ID) {
			// The client's lifetime privacy budget cannot cover another epoch:
			// refuse with an attributable, board-recorded verdict, so
			// resubmission attempts leave durable evidence. The refusal is
			// definitive (no verification runs): submission and refusal records
			// land back to back in this batch's commit window, the ID stays
			// reserved off-board, and nothing is charged.
			id := sub.Public.ID
			refusal := budgetRefusalError(id, s.ledger.spent[id], s.ledger.cfg.EpochCost, s.ledger.cfg.Total)
			cl := &sessionClient{public: sub.Public, payloads: sub.Payloads, decided: true, reject: refusal}
			if recs != nil {
				if aerr = s.appendRecordOrdered(RecordSubmission, epoch, recs[i]); aerr != nil {
					break
				}
				if aerr = s.appendRecordOrdered(RecordVerdict, epoch, encodeVerdict(id, refusal, false)); aerr != nil {
					// The submission landed without its verdict: hand the
					// member to the generic unwind, which may withdraw it.
					cl.decided, cl.reject = false, nil
					s.byID[id] = cl
					admitted = append(admitted, cl)
					break
				}
			}
			s.byID[id] = cl
			s.rejected[id] = refusal
			verdicts[i] = refusal
			continue
		}
		if recs != nil {
			if aerr = s.appendRecordOrdered(RecordSubmission, epoch, recs[i]); aerr != nil {
				break
			}
		}
		cl := &sessionClient{public: sub.Public, payloads: sub.Payloads}
		s.byID[sub.Public.ID] = cl
		s.order = append(s.order, cl)
		admitted = append(admitted, cl)
		admittedIdx = append(admittedIdx, i)
		if s.ledger != nil {
			// Charge the member right behind its submission record, in the
			// same commit window. The ledger mutates only after the append
			// succeeds, so a failing store never forks the chain; a failed
			// append leaves the member in the generic unwind set below.
			if payload, commit := s.ledger.prepareCharge(epoch, sub.Public.ID); payload != nil {
				if aerr = s.appendRecordOrdered(RecordBudgetCharge, epoch, payload); aerr != nil {
					break
				}
				commit()
			}
		}
	}
	if aerr != nil {
		// The store failed mid-batch: members already written are reserved
		// but cannot be acknowledged. Withdraw them — grammatical, since
		// none has a verdict yet — and fail the whole batch.
		s.withdrawBatchLocked(admitted, epoch)
		s.mu.Unlock()
		return nil, aerr
	}
	s.mu.Unlock()

	// Group commit ∥ verification: one fsync covers every submission record
	// just written, and it runs while the batched Σ-OR check is already
	// chewing on the same submissions — the disk and the
	// multi-exponentiation overlap instead of queueing behind each other.
	// Nothing is acknowledged until both have landed.
	syncc := make(chan error, 1)
	if s.opts.Store != nil {
		go func() { syncc <- s.syncStore() }()
	} else {
		syncc <- nil
	}
	var bv []error
	var onBoard []bool
	var verr error
	if len(admitted) > 0 {
		batchSubs := make([]*ClientSubmission, len(admitted))
		for k, i := range admittedIdx {
			batchSubs[k] = subs[i]
		}
		bv, onBoard, verr = s.verifyBatch(ctx, batchSubs)
	}
	if serr := <-syncc; serr != nil {
		s.mu.Lock()
		s.withdrawBatchLocked(admitted, epoch)
		s.mu.Unlock()
		return nil, serr
	}
	if verr != nil {
		// Cancelled mid-verification: release every reservation so a retry
		// of the same batch is not a duplicate flood.
		s.mu.Lock()
		s.withdrawBatchLocked(admitted, epoch)
		s.mu.Unlock()
		return nil, verr
	}
	if len(admitted) == 0 {
		return verdicts, nil
	}

	s.mu.Lock()
	for k, cl := range admitted {
		cl.decided = true
		cl.reject = bv[k]
		verdicts[admittedIdx[k]] = bv[k]
		if bv[k] != nil {
			s.rejected[cl.public.ID] = bv[k]
			if !onBoard[k] {
				// The failure happened on the private channel (bad or missing
				// share openings), so the submission is refused outright and its
				// public part never reaches the bulletin board. Posting it would
				// break public auditability: the auditor recomputes the roster
				// from board proofs alone, and Line 13's commitment product must
				// cover every board-valid client. The ID stays reserved.
				s.removeFromOrderLocked(cl)
			}
		}
	}
	s.mu.Unlock()

	// Verdict records: ordered writes plus one shared flush, like the
	// submission window. Verdicts are recomputable — replay re-verifies a
	// verdict-less submission to the identical verdict — so a failed flush
	// is reported but needs no rollback; only members whose verdict record
	// never hit the log at all are withdrawn (their submission records stay,
	// verdict-less, exactly the state recovery handles).
	if s.opts.Store != nil {
		flushed := len(admitted)
		for k, cl := range admitted {
			if aerr = s.appendRecordOrdered(RecordVerdict, epoch, encodeVerdict(cl.public.ID, bv[k], onBoard[k])); aerr != nil {
				flushed = k
				break
			}
		}
		if aerr == nil {
			aerr = s.syncStore()
		}
		if aerr != nil {
			if flushed < len(admitted) {
				s.mu.Lock()
				s.withdrawBatchLocked(admitted[flushed:], epoch)
				s.mu.Unlock()
				for _, i := range admittedIdx[flushed:] {
					verdicts[i] = aerr
				}
			}
			return verdicts, aerr
		}
	}
	return verdicts, nil
}

// withdrawBatchLocked removes a batch's reserved members after a failure,
// releasing their IDs for a retry, and appends best-effort withdrawal
// records (the store is typically already failing; replay treats an
// unwithdrawn, verdict-less submission as "re-verify", so a lost withdrawal
// is superseded on the next retry). Callers hold s.mu — the withdrawal is
// appended inside the roster lock so a concurrent retry of the same ID cannot
// slot its submission record between the removal and the withdrawal — and
// must only pass members without a persisted verdict.
func (s *Session) withdrawBatchLocked(admitted []*sessionClient, epoch int) {
	for _, cl := range admitted {
		delete(s.byID, cl.public.ID)
		delete(s.rejected, cl.public.ID)
		s.removeFromOrderLocked(cl)
		_ = s.appendRecord(RecordWithdraw, epoch, encodeWithdraw(cl.public.ID))
	}
}

// verifyBatch decides a whole batch eagerly: ONE combined Σ-OR batch check
// over every member's board proof (sigma.BitBatch folding the entire
// arrival batch, decided by a single multi-exponentiation on the native
// Pippenger backend) and the members' K·N per-prover share-opening checks
// fanned out over the session pool. Each member's verdict — sentinel, reason
// and the onBoard split — depends on its own submission alone, whatever else
// shares the batch: board-level failures are publicly
// attributable and stay on the board, private-channel payload failures mean
// the submission is refused outright. A non-nil err means cancellation, not
// a verdict.
func (s *Session) verifyBatch(ctx context.Context, subs []*ClientSubmission) (verdicts []error, onBoard []bool, err error) {
	n := len(subs)
	verdicts = make([]error, n)
	onBoard = make([]bool, n)
	publics := make([]*ClientPublic, n)
	for i, sub := range subs {
		publics[i] = sub.Public
	}
	_, rej, ferr := s.pub.filterValidClientsBatch(ctx, publics, s.workers)
	if ferr != nil {
		return nil, nil, ferr
	}
	k := s.pub.cfg.Provers
	// Members that survived the board check and carry the right payload
	// count proceed to the fanned-out opening checks.
	pending := make([]int, 0, n)
	for i, sub := range subs {
		if r, ok := rej[sub.Public.ID]; ok {
			verdicts[i] = r
			onBoard[i] = true
			continue
		}
		if len(sub.Payloads) != k {
			verdicts[i] = fmt.Errorf("%w: client %d supplied %d per-prover payloads, want %d",
				ErrClientReject, sub.Public.ID, len(sub.Payloads), k)
			continue
		}
		pending = append(pending, i)
	}
	rejects := make([]error, len(pending)*k)
	ferr = forEach(ctx, s.workers, len(pending)*k, func(t int) error {
		i := pending[t/k]
		rejects[t] = s.pub.checkPayloadOpenings(subs[i].Public, subs[i].Payloads[t%k], t%k)
		return nil
	})
	if ferr != nil {
		return nil, nil, ferr
	}
	for pi, i := range pending {
		onBoard[i] = true
		for pk := 0; pk < k; pk++ { // lowest prover index names the reason
			if r := rejects[pi*k+pk]; r != nil {
				verdicts[i] = r
				onBoard[i] = false
				break
			}
		}
	}
	return verdicts, onBoard, nil
}

// SubmitBatch splits a batch by shard assignment and admits the per-shard
// sub-batches concurrently, each with Session.SubmitBatch's exact
// semantics: one roster-lock pass, one group-commit fsync window, and one
// combined Σ-OR check per shard. Verdicts come back aligned with subs. A
// shard-level failure is reported through the error return, with the failed
// shard's slots carrying the error; sibling shards still complete their own
// sub-batches (a batch is not transactional across shards).
func (ss *ShardedSession) SubmitBatch(ctx context.Context, subs []*ClientSubmission) ([]error, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	verdicts := make([]error, len(subs))
	groups := make([][]*ClientSubmission, len(ss.segs))
	idx := make([][]int, len(ss.segs))
	var busy []int // the shards the batch reaches: only they get a worker
	for i, sub := range subs {
		if sub == nil || sub.Public == nil {
			verdicts[i] = fmt.Errorf("%w: nil submission", ErrClientReject)
			continue
		}
		sh := ss.ShardFor(sub.Public.ID)
		if len(groups[sh]) == 0 {
			busy = append(busy, sh)
		}
		groups[sh] = append(groups[sh], sub)
		idx[sh] = append(idx[sh], i)
	}
	shardErrs := make([]error, len(ss.segs))
	done := make([]bool, len(ss.segs))
	_ = forEach(ctx, len(busy), len(busy), func(j int) error {
		sh := busy[j]
		vs, err := ss.segs[sh].SubmitBatch(ctx, groups[sh])
		shardErrs[sh] = err
		for k, i := range idx[sh] {
			if vs != nil {
				verdicts[i] = vs[k]
			} else {
				verdicts[i] = err
			}
		}
		done[sh] = true
		return nil // never fail fast: sibling shards finish their sub-batches
	})
	var firstErr error
	for sh, err := range shardErrs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !done[sh] && len(groups[sh]) > 0 {
			// Skipped by cancellation before its sub-batch started.
			for _, i := range idx[sh] {
				verdicts[i] = ctxErr(ctx)
			}
			if firstErr == nil {
				firstErr = ctxErr(ctx)
			}
		}
	}
	return verdicts, firstErr
}
