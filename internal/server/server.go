// Package server is the admission surface of every serving mode: one admitter
// interface, one frame dispatch and one serve loop.
//
// The paper's guarantee is that every client gets one public verdict from one
// rule, so the write side of the board is spelled out once. A client frame is
// cut into its raw member records, handed to an Admitter, counted, and
// answered — "submit-batch" with one "batch-verdicts" frame carrying a verdict
// per client, "submit" (one submission record, the same bytes as a batch
// member, admitted as a batch of one right here in Dispatch.Handle) with an
// "ack" or an "error" frame carrying its verdict, the connection kept — by the
// same code whether the admitter is a plain vdp.Session, a
// vdp.ShardedSession, a cluster.Node, a cluster.Standby that admits once
// promoted, a vdp.SketchSession behind its contribution grouping (Sketch), or
// a cluster.Router that routes the records undecoded to the nodes that own
// them. What a mode adds on top — the cluster RPC, sketch queries — is an
// Extra hook that sees each frame first. cmd/vdpserver and cmd/vdprouter serve
// through Dispatch.Serve, the cluster and transport tests through
// Dispatch.Handle; there is no second copy of the switch.
//
// The package imports neither cmd/ nor internal/cluster, so internal/cluster
// serves its router through it and its tests serve their nodes through it: a
// node plugs in as a Board, its RPC endpoint as cluster.Demux(node.Handle).
package server

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/vdp"
)

// Admitter is what the dispatch drives: a frame's raw member records in —
// each the EncodeClientSubmission bytes, decoded under pub by the admitters
// that verify them — and the reply frame's verdicts out, one per record. A
// rejected member is a verdict; a record that does not decode and a
// batch-level failure (closed session, store failure) error the frame.
type Admitter interface {
	SubmitBatch(ctx context.Context, pub *vdp.Public, recs [][]byte) ([]vdp.BatchVerdict, error)
}

// Board is the admission shape vdp.Session, vdp.ShardedSession, cluster.Node
// and cluster.Standby share: batch verdicts as per-slot errors.
type Board interface {
	SubmitBatch(ctx context.Context, subs []*vdp.ClientSubmission) ([]error, error)
}

// Of adapts a Board: one verdict per submission, in frame order.
func Of(b Board) Admitter { return boardAdmitter{b} }

type boardAdmitter struct{ Board }

func (a boardAdmitter) SubmitBatch(ctx context.Context, pub *vdp.Public, recs [][]byte) ([]vdp.BatchVerdict, error) {
	subs, err := decode(pub, recs)
	if err != nil {
		return nil, err
	}
	errs, err := a.Board.SubmitBatch(ctx, subs)
	if err != nil {
		return nil, err
	}
	return vdp.VerdictsFor(subs, errs), nil
}

// decode decodes every member record of a frame, refusing the whole frame at
// the first malformed one, before anything reaches the board.
func decode(pub *vdp.Public, recs [][]byte) ([]*vdp.ClientSubmission, error) {
	subs := make([]*vdp.ClientSubmission, len(recs))
	for i, rec := range recs {
		var err error
		if subs[i], err = pub.DecodeClientSubmission(rec); err != nil {
			return nil, err
		}
	}
	return subs, nil
}

// Options configures a Dispatch.
type Options struct {
	// Accepted seeds the count with admissions already on the board (a
	// recovered epoch).
	Accepted int
	// Target closes Done once this many submissions are accepted; 0 never
	// closes it (a cluster node serves until told to stop).
	Target int
	// Extra sees every frame first and serves the mode's own kinds (the
	// cluster RPC, sketch queries); a nil, nil return passes the frame on to
	// admission.
	Extra transport.Handler
	// Logf, when set, receives one line per admitted frame, prefixed with
	// Label.
	Logf  func(format string, args ...any)
	Label string
}

// Dispatch is the frame dispatch: Handle is the transport.Handler, Accepted
// and Done are the count the serve loop waits on.
type Dispatch struct {
	ctx  context.Context
	pub  *vdp.Public
	adm  Admitter
	opts Options

	mu       sync.Mutex
	accepted int
	done     chan struct{}
}

// New builds the dispatch for one board. ctx is handed to every admission, so
// cancelling it (a signal) aborts in-flight verification.
func New(ctx context.Context, pub *vdp.Public, adm Admitter, opts Options) *Dispatch {
	d := &Dispatch{ctx: ctx, pub: pub, adm: adm, opts: opts, done: make(chan struct{})}
	d.count(opts.Accepted)
	return d
}

// Accepted returns how many submissions have been accepted so far, the
// recovered ones included.
func (d *Dispatch) Accepted() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.accepted
}

// Done is closed once Accepted reaches Options.Target.
func (d *Dispatch) Done() <-chan struct{} { return d.done }

// progress is the count as a log line shows it, rendered only if a line is
// actually written.
type progress struct{ accepted, target int }

func (p progress) String() string {
	if p.target > 0 {
		return fmt.Sprintf("%d/%d", p.accepted, p.target)
	}
	return fmt.Sprintf("%d so far", p.accepted)
}

// count adds newly accepted submissions, closing Done on reaching the target.
func (d *Dispatch) count(ok int) progress {
	d.mu.Lock()
	defer d.mu.Unlock()
	was, t := d.accepted, d.opts.Target
	d.accepted += ok
	if was < t && d.accepted >= t {
		close(d.done)
	}
	return progress{d.accepted, t}
}

func (d *Dispatch) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(d.opts.Label+format, args...)
	}
}

// Handle cuts, admits, counts and encodes one client frame. Verification is
// eager: the verdict goes straight back on the client's connection, and with
// a durable board the submission and verdict are on disk before the reply is
// written. A "submit" frame carries one submission record and is a batch of
// one whose single verdict is answered with an "ack", or with an "error"
// frame carrying the verdict on a connection that stays up, as it does for a
// rejected batch member. A frame that does not parse and a batch-level
// failure are the handler's error (the connection drops).
func (d *Dispatch) Handle(f *transport.Frame) ([]*transport.Frame, error) {
	if d.opts.Extra != nil {
		if replies, err := d.opts.Extra(f); replies != nil || err != nil {
			return replies, err
		}
	}
	var recs [][]byte
	switch f.Kind {
	case "submit":
		recs = [][]byte{f.Payload}
	case "submit-batch":
		var err error
		if recs, _, err = vdp.SplitSubmissionBatch(f.Payload); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unexpected frame kind %q", f.Kind)
	}
	verdicts, err := d.adm.SubmitBatch(d.ctx, d.pub, recs)
	if err != nil {
		return nil, err
	}
	if f.Kind == "submit" {
		if v := verdicts[0]; !v.Accepted {
			return []*transport.Frame{{Kind: "error", Payload: []byte(v.Reason)}}, nil
		}
		d.logf("accepted client %d (%s)", verdicts[0].ID, d.count(1))
		return []*transport.Frame{{Kind: "ack", Payload: []byte("accepted")}}, nil
	}
	ok := 0
	for _, v := range verdicts {
		if v.Accepted {
			ok++
		}
	}
	d.logf("accepted batch of %d: %d admitted, %d rejected (%s)", len(verdicts), ok, len(verdicts)-ok, d.count(ok))
	return []*transport.Frame{{Kind: "batch-verdicts", Payload: vdp.EncodeBatchVerdicts(verdicts)}}, nil
}

// Serve is the one serve loop every serving binary runs: listen, announce,
// and wait until the dispatch has accepted its target or ctx is done (a
// signal; a dispatch with no target waits for that alone). The listener is
// still up on return; the returned drain closes the door and waits for
// in-flight connections within the grace period. A stray connection that
// never completes (half-open peer, port scanner) only forfeits the drain:
// whatever the caller does next gets its own fresh budget.
func (d *Dispatch) Serve(ctx context.Context, addr string, grace time.Duration, role, detail string) (drain func(), err error) {
	srv, err := transport.Listen(addr, d.Handle)
	if err != nil {
		return nil, err
	}
	log.Printf("%s listening on %s (%s)", role, srv.Addr(), detail)
	select {
	case <-d.Done():
	case <-ctx.Done():
		log.Printf("signal received: shutting down gracefully")
	}
	return func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Printf("listener drain: %v", err)
		}
	}, nil
}

// Sketch serves a vdp.SketchSession: as the Admitter it regroups a batch
// frame into whole contributions (Rows consecutive submissions per client,
// the shape vdpclient -sketch -item sends) and answers one verdict per
// contribution, not per row — the client's unit of admission is the whole
// bundle, and so is its refusal; as the Extra hook it answers "sketch-query"
// frames from the released sketch once Release has been called.
type Sketch struct {
	hs *vdp.SketchSession

	mu       sync.Mutex
	released *vdp.NoisySketch
}

// NewSketch wraps a sketch session for serving.
func NewSketch(hs *vdp.SketchSession) *Sketch { return &Sketch{hs: hs} }

// Release publishes the finalized sketch to the query path.
func (s *Sketch) Release(ns *vdp.NoisySketch) {
	s.mu.Lock()
	s.released = ns
	s.mu.Unlock()
}

// SubmitBatch admits the frame's contributions through the session's batched
// pipeline (row 0 first, as the budget gate).
func (s *Sketch) SubmitBatch(ctx context.Context, pub *vdp.Public, recs [][]byte) ([]vdp.BatchVerdict, error) {
	subs, err := decode(pub, recs)
	if err != nil {
		return nil, err
	}
	contribs, err := vdp.GroupContributions(s.hs.Rows(), subs)
	if err != nil {
		return nil, err
	}
	errs, err := s.hs.SubmitBatch(ctx, contribs)
	if err != nil {
		return nil, err
	}
	firsts := make([]*vdp.ClientSubmission, len(contribs))
	for i, c := range contribs {
		firsts[i] = c.Rows[0]
	}
	return vdp.VerdictsFor(firsts, errs), nil
}

// Extra is the sketch mode's Options.Extra: "sketch-query" is answered from
// the release, and "submit" is refused before its payload is even decoded —
// one "submit" frame is one ΠBin submission, a contribution is one per row.
func (s *Sketch) Extra(f *transport.Frame) ([]*transport.Frame, error) {
	switch f.Kind {
	case "submit":
		return nil, fmt.Errorf("unexpected frame kind \"submit\" in sketch mode (a single \"submit\" frame cannot carry a %d-row contribution; use vdpclient -sketch -item)",
			s.hs.Rows())
	case "sketch-query":
	default:
		return nil, nil
	}
	q, err := vdp.DecodeSketchQuery(f.Payload)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	ns := s.released
	s.mu.Unlock()
	if ns == nil {
		return nil, fmt.Errorf("epoch %d is still collecting; queries are served after the release", s.hs.Epoch())
	}
	var items []vdp.ItemEstimate
	if q.Kind == vdp.SketchQueryPoint {
		est, bound, err := ns.PointQuery(q.Arg)
		if err != nil {
			return nil, err
		}
		items = []vdp.ItemEstimate{{Item: q.Arg, Estimate: est, Bound: bound}}
	} else {
		items = ns.HeavyHitters(q.Arg)
	}
	return []*transport.Frame{{Kind: "sketch-estimates", Payload: vdp.EncodeItemEstimates(items)}}, nil
}
