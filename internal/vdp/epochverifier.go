package vdp

import "context"

// The read side's one verifier. The boardGrammar (grammar.go) refuses every
// record a Session cannot have written; what only cryptography can refuse,
// the epochVerifier judges from the grammar's events:
//
//   - every submission's board proof, decided by one batched Σ-OR check over
//     a window of pending submissions — filterValidClientsBatch, the check
//     the session itself runs, so both reach identical verdicts;
//   - every logged verdict, held to that decision at the verdict's record;
//   - Line 13's client factor, folded as accepted verdicts land (a client
//     with no verdict record at the seal joins by its board proof, the
//     verdict admission's board check gives it);
//   - the seal, by checkSeal against that product: work independent of how
//     many clients the epoch admitted.
//
// A TailAuditor drives it, and every reader that audits is one: the live
// tail's Poll and the offline audit (AuditLog, the merged audits) alike feed
// it the events of boardGrammar.replay's windowed decode, in log order, and
// settle it before the drain returns, so an offline audit is the live tail
// run to the seal. The drains differ only in their source: Poll drains the
// auditor's tailer, reading every record in full; the offline audit drains
// the log's Replay, reading the audited epoch in full and skimming the rest.
// Every drain flushes every auditWindow submissions, at the seal and when it
// settles. Feed, the one-record entry, settles after its record, so the
// Feed of a divergent verdict returns its error, and also flushes every
// feedWindow submissions. Between flushes a verdict whose submission is
// undecided waits with its own record position, and the wait ends before
// the reader reports anything later — at the seal, at the epoch's boundary,
// or before a grammar or store error is returned — so the blame still falls
// on the lowest-index divergent record.

// auditWindow is how many undecided submissions a reader holds before one
// batched Σ-OR check decides them. Every drain settles before it returns, so
// the window only bounds memory and the product's size: a Poll catching up
// on a backlog, or an epoch of up to auditWindow submissions at its seal, is
// decided by one product, and a product that fails is bisected
// (filterValidClientsBatch). A var so tests can sweep it.
var auditWindow = 4096

// feedWindow is the smaller bound Feed flushes at. Feed cannot know whether
// more records follow, so its settle decides whatever is pending when a
// verdict lands: with auditWindow alone a Feed-driven tail's products would
// be one frame or two, as concurrent frames' verdicts happened to land
// between them on the board, and its cost would vary with that timing.
// Flushing every 64 arrivals cuts the products by the arrivals alone (a
// board of 64-submission frames is decided a frame a product), and bounds
// the work one record can trigger on the caller's goroutine.
const feedWindow = 64

// epochVerifier holds the cryptographic state of the epoch a reader is in.
type epochVerifier struct {
	pub     *Public
	g       *boardGrammar // the reader's machine: record positions, the roster at the seal
	workers int

	clients  map[int]*verifiedClient // the open epoch's submissions, by client
	pending  []*verifiedClient       // the undecided ones, in no particular order
	verdicts []waitingVerdict        // verdicts read before their submission was decided
	prod     clientProduct
	digest   []byte // the open epoch's verified digest, once sealed
}

// verifiedClient is what the verifier knows of one submission.
type verifiedClient struct {
	pub     *ClientPublic // let go once folded into the product
	slot    int           // index in pending; -1 when not there
	checked bool          // board proof decided
	valid   bool          // board proof verdict
	folded  bool
}

// waitingVerdict is a logged verdict whose submission was undecided when the
// verdict was read.
type waitingVerdict struct {
	cl *boardClient
	c  *verifiedClient
	at boardLogError // the verdict record's position
}

// newEpochVerifier starts a verifier on the grammar g, which the reader
// feeds; workers is the pool width of the batched checks.
func newEpochVerifier(pub *Public, g *boardGrammar, workers int) *epochVerifier {
	return &epochVerifier{pub: pub, g: g, workers: workers,
		clients: make(map[int]*verifiedClient), prod: pub.newClientProduct()}
}

// apply acts on the event of one record read in full.
func (v *epochVerifier) apply(ctx context.Context, ev boardEvent) error {
	switch ev.kind {
	case evSubmission:
		if prev := v.clients[ev.client.id]; prev != nil {
			v.unpend(prev) // superseded by this retry
		}
		c := &verifiedClient{pub: ev.sub.Public, slot: len(v.pending)}
		v.clients[ev.client.id] = c
		v.pending = append(v.pending, c)
		if len(v.pending) >= auditWindow {
			return v.flush(ctx)
		}
	case evVerdict:
		c := v.clients[ev.client.id]
		if ev.client.refused {
			// A budget refusal is decided before any verification runs (the
			// grammar has checked it against the replayed ledger), so there is
			// no proof verdict to compare; the client leaves the Σ-OR window.
			v.unpend(c)
			return nil
		}
		w := waitingVerdict{cl: ev.client, c: c, at: v.g.position()}
		if c.checked {
			return v.judge(w)
		}
		v.verdicts = append(v.verdicts, w)
	case evWithdraw:
		v.unpend(v.clients[ev.client.id])
		delete(v.clients, ev.client.id)
	case evSeal:
		return v.seal(ctx, ev.seal)
	case evBoundary:
		if err := v.settle(ctx); err != nil {
			return err
		}
		v.clients, v.pending, v.prod, v.digest = make(map[int]*verifiedClient), nil, v.pub.newClientProduct(), nil
	}
	return nil
}

// unpend takes a submission that left the roster out of the window, in O(1):
// the last pending submission moves into its slot.
func (v *epochVerifier) unpend(c *verifiedClient) {
	if c.slot < 0 {
		return
	}
	last := v.pending[len(v.pending)-1]
	v.pending[c.slot], last.slot = last, c.slot
	v.pending, c.slot = v.pending[:len(v.pending)-1], -1
}

// settle judges every waiting verdict, flushing the window they wait on. A
// drain settles before it reports anything past the verdicts.
func (v *epochVerifier) settle(ctx context.Context) error {
	if len(v.verdicts) == 0 {
		return nil
	}
	return v.flush(ctx)
}

// flush decides every pending submission's board proof with one batched
// Σ-OR check, then judges the verdicts that waited for it, in log order.
func (v *epochVerifier) flush(ctx context.Context) error {
	if len(v.pending) > 0 {
		pubs := make([]*ClientPublic, len(v.pending))
		for i, c := range v.pending {
			pubs[i] = c.pub
		}
		_, rejected, err := v.pub.filterValidClientsBatch(ctx, pubs, v.workers)
		if err != nil {
			return err
		}
		for _, c := range v.pending {
			_, bad := rejected[c.pub.ID]
			c.checked, c.valid, c.slot = true, !bad, -1
		}
		v.pending = v.pending[:0]
	}
	for _, w := range v.verdicts {
		if err := v.judge(w); err != nil {
			return err
		}
	}
	v.verdicts = v.verdicts[:0]
	return nil
}

// judge holds one logged verdict to the decided board proof — the log's
// claim and the cryptography must agree, record by record — and folds an
// accepted client into the product.
func (v *epochVerifier) judge(w waitingVerdict) error {
	cl, c := w.cl, w.c
	switch {
	case cl.reject == nil && !c.valid:
		return w.at.because("client %d accepted, but its board proof fails (submission at record %d)", cl.id, cl.index)
	case cl.reject != nil && cl.onBoard && c.valid:
		return w.at.because("client %d rejected on the board, but its board proof verifies (submission at record %d)", cl.id, cl.index)
	case cl.reject != nil && !cl.onBoard && !c.valid:
		// A payload (private-channel) rejection implies the board proof
		// passed: Session.verifyBatch decides the board first and attributes
		// board failures as on-board verdicts.
		return w.at.because("client %d refused off-board as a payload dispute, but its board proof fails (submission at record %d)", cl.id, cl.index)
	case cl.reject == nil:
		v.fold(c)
	}
	return nil
}

// fold adds a valid client's share commitments to the product, once, and
// lets go of its decoded submission.
func (v *epochVerifier) fold(c *verifiedClient) {
	if c.folded || !c.valid {
		return
	}
	v.prod.add(c.pub)
	c.pub, c.folded = nil, true
}

// seal verifies the epoch's seal: every submission decided and every verdict
// judged, the still-undecided roster folded by its board proofs, then
// checkSeal against the product. The grammar has matched the sealed client
// section to the roster byte for byte, so no client is decoded again.
func (v *epochVerifier) seal(ctx context.Context, seal []byte) error {
	if err := v.flush(ctx); err != nil {
		return err
	}
	for _, cl := range v.g.roster {
		if !cl.decided {
			v.fold(v.clients[cl.id])
		}
	}
	clients, t, err := v.pub.decodeProverSection(seal, v.workers)
	if err == nil {
		err = v.pub.checkSeal(ctx, t, v.prod, v.workers)
	}
	if err != nil {
		if err == ctxErr(ctx) {
			return err
		}
		return v.g.errorf("seal: %v", err)
	}
	v.digest = sealDigest(v.pub, clients, t)
	return nil
}
