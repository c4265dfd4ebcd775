package main

// sut.go is the benchmark's only adapter to the system under test. Every
// product symbol the benchmark uses — vdp sessions and codecs, the transport
// server and client, the cluster router/node/standby/replicator, the store
// logs, and the crypto primitives the replay probes time — is referenced from
// this file and from nowhere else in bench/. When the product's API is
// consolidated (ROADMAP item 3) this is the one file that follows it.
//
// It holds, in order: the deployment and its seeded inputs, the client-side
// gateway, the server-side submit / submit-batch dispatch (owned here because
// cmd/vdpserver's lives in package main), the traced store and mirror
// wrappers, the three boards (single node, 2x2 cluster, sketch), the
// correctness cross-checks, the failover drill, and the replay probes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/morra"
	"repro/internal/pedersen"
	"repro/internal/sigma"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// sketchLayout is sketch-hh's count-min shape: 3 rows of 16 buckets over a
// 64-item domain, the first hotItems of which draw hotShare of the traffic.
var sketchLayout = sketch.Layout{Rows: 3, Width: 16, Domain: 64}

const (
	hotItems   = 4
	hotShare   = 0.6
	gateHonest = 8 // honest submissions in the correctness gate's epoch
	clusterK   = 2 // shards of cluster-2x2-batch64, each a primary + standby
	rpcTimeout = 60 * time.Second
)

var backendRetry = transport.RetryPolicy{Retries: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}

// deployment is one workload's protocol instance: the public parameters every
// party shares, plus where its durable boards live.
type deployment struct {
	w       *workload
	seed    int64
	pub     *vdp.Public
	layout  sketch.Layout     // sketch workloads only
	budget  *vdp.BudgetConfig // sketch workloads only: one epoch's charge is the whole lifetime budget
	scratch string
	ctx     context.Context
	// wrapAdmit, when set, replaces every board's admission surface. Only the
	// test that shows the correctness gate bites sets it.
	wrapAdmit func(admitter) admitter
}

func newDeployment(w *workload, seed int64, scratch string) (*deployment, error) {
	d := &deployment{w: w, seed: seed, scratch: scratch, ctx: context.Background()}
	cfg := vdp.Config{Provers: 1, Bins: 1, Coins: w.coins}
	if w.kind == kindSketch {
		d.layout = sketchLayout
		cfg.Bins = d.layout.Width
		d.budget = &vdp.BudgetConfig{EpochCost: 500_000, Total: 500_000}
	}
	pub, err := vdp.Setup(cfg)
	if err != nil {
		return nil, err
	}
	d.pub = pub
	return d, nil
}

// sessionSeed is the root seed every session of the deployment is opened
// with, so the same submissions in the same order seal the same transcript.
func (d *deployment) sessionSeed() io.Reader { return seedStream(d.seed, "session", 0) }

// unit is what one client sends: one submission, or one per sketch row.
type unit []*vdp.ClientSubmission

// request is one pre-encoded client frame.
type request struct {
	kind    string
	payload []byte
	subs    int // submissions (sketch: contributions) it carries
}

// inputs is everything a run sends, generated and encoded from the seed
// during set-up so the generator costs nothing inside a timed section.
type inputs struct {
	epochs [][]request // per board epoch, in send order
	gate   struct {
		honest    []request // gateHonest submissions, all to be accepted
		tampered  request   // one submission whose proof was altered after proving
		tamperID  int
		duplicate request // the first honest client again
		dupID     int
		drill     request // one honest, not yet seen client owned by shard 0
	}
	probe []unit // the first frame's clients, for the replay probes
}

// generate builds the workload's submissions from the seed — each client from
// its own stream, so the result does not depend on how many workers built it —
// and encodes the request frames.
func (d *deployment) generate() (*inputs, error) {
	w := d.w
	epochs := max(1, w.boardEpochs)
	main := w.clients * epochs
	total := main + gateHonest + 2 // + the tampered client + the drill client
	choice := rand.New(rand.NewSource(int64(seedWord(d.seed, "choice", 0))))
	picks := make([]int, total)
	for i := range picks {
		switch {
		case w.kind != kindSketch:
			picks[i] = choice.Intn(2)
		case choice.Float64() < hotShare:
			picks[i] = choice.Intn(hotItems)
		default:
			picks[i] = hotItems + choice.Intn(d.layout.Domain-hotItems)
		}
	}
	// The drill client must be owned by shard 0, the primary the drill kills.
	drillID := main + gateHonest + 1
	for vdp.ShardOf(drillID, clusterK) != 0 {
		drillID++
	}
	ids := make([]int, total)
	for i := range ids {
		ids[i] = i
	}
	ids[total-1] = drillID

	units := make([]unit, total)
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for wk := range errs {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < total; i += len(errs) {
				u, err := d.newUnit(ids[i], picks[i])
				if err != nil {
					errs[wk] = err
					return
				}
				units[i] = u
			}
		}(wk)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	in := &inputs{}
	for e := 0; e < epochs; e++ {
		reqs, err := d.encode(units[e*w.clients:(e+1)*w.clients], w.batch)
		if err != nil {
			return nil, err
		}
		in.epochs = append(in.epochs, reqs)
	}
	in.probe = units[:min(w.clients, max(w.batch, 16))]

	gate := units[main : main+gateHonest]
	var err error
	if in.gate.honest, err = d.encode(gate, w.batch); err != nil {
		return nil, err
	}
	bad := units[main+gateHonest]
	in.gate.tamperID = bad[0].Public.ID
	tamper(d.pub, bad[0].Public)
	one := func(u unit) (request, error) {
		reqs, err := d.encode([]unit{u}, w.batch)
		if err != nil {
			return request{}, err
		}
		return reqs[0], nil
	}
	if in.gate.tampered, err = one(bad); err != nil {
		return nil, err
	}
	in.gate.dupID = gate[0][0].Public.ID
	if in.gate.duplicate, err = one(gate[0]); err != nil {
		return nil, err
	}
	if in.gate.drill, err = one(units[total-1]); err != nil {
		return nil, err
	}
	return in, nil
}

func (d *deployment) newUnit(id, pick int) (unit, error) {
	rnd := seedStream(d.seed, "client", id)
	if d.w.kind == kindSketch {
		c, err := d.pub.NewSketchContribution(d.layout, id, pick, rnd)
		if err != nil {
			return nil, err
		}
		return c.Rows, nil
	}
	sub, err := d.pub.NewClientSubmission(id, pick, rnd)
	if err != nil {
		return nil, err
	}
	return unit{sub}, nil
}

// tamper breaks a legality proof after it was made: the submission still
// decodes, so only verification can refuse it.
func tamper(pub *vdp.Public, cp *vdp.ClientPublic) {
	one := pub.Field().One()
	if cp.BitProof != nil {
		cp.BitProof.Z0 = cp.BitProof.Z0.Add(one)
		return
	}
	cp.OneHotProof.Bits[0].Z0 = cp.OneHotProof.Bits[0].Z0.Add(one)
}

// encode packs units into request frames of `batch` clients each: one
// "submit" frame per client when batch is 1, "submit-batch" frames otherwise
// (a sketch client's rows travel together, in row order).
func (d *deployment) encode(units []unit, batch int) ([]request, error) {
	var reqs []request
	if batch == 1 {
		for _, u := range units {
			p, err := d.pub.EncodeSubmitPayload(u[0])
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{kind: "submit", payload: p, subs: 1})
		}
		return reqs, nil
	}
	for at := 0; at < len(units); at += batch {
		frame := units[at:min(at+batch, len(units))]
		var flat []*vdp.ClientSubmission
		for _, u := range frame {
			flat = append(flat, u...)
		}
		reqs = append(reqs, request{kind: "submit-batch", payload: d.pub.EncodeSubmissionBatch(flat), subs: len(frame)})
	}
	return reqs, nil
}

// --- client side -----------------------------------------------------------

// gateway is one closed-loop client connection: it sends a frame and waits
// for its verdict frame before sending the next.
type gateway struct {
	cli *transport.Client
	tr  *tracer
}

func dialGateway(addr string, tr *tracer) (*gateway, error) {
	cli, err := transport.DialClient(addr, transport.ClientOptions{Timeout: rpcTimeout})
	if err != nil {
		return nil, err
	}
	return &gateway{cli: cli, tr: tr}, nil
}

func (g *gateway) close() { g.cli.Close() }

// frameOverhead is the transport's fixed header: kind length, sender,
// payload length.
const frameOverhead = 4 + 8 + 4

// roundTrip sends one request and parses the verdict frame: how many of its
// submissions were accepted, and the stated reason for each one refused. The
// client's span covers both, so it is the latency a gateway sees.
func (g *gateway) roundTrip(rq request) (accepted int, refused []string, err error) {
	root := g.tr.beginRequest()
	reply, err := g.cli.RoundTrip(&transport.Frame{Kind: rq.kind, Payload: rq.payload})
	if err == nil {
		accepted, refused, err = parseVerdicts(reply)
	}
	g.tr.endRequest(root)
	if err != nil {
		return 0, nil, err
	}
	if g.tr.active() {
		c := &g.tr.c
		c.frames.Add(1)
		c.subs.Add(int64(rq.subs))
		c.wireBytes.Add(int64(2*frameOverhead + len(rq.kind) + len(rq.payload) + len(reply.Kind) + len(reply.Payload)))
		c.attempts.Add(int64(accepted + len(refused)))
		c.rejects.Add(int64(len(refused)))
	}
	return accepted, refused, nil
}

func parseVerdicts(reply *transport.Frame) (accepted int, refused []string, err error) {
	switch reply.Kind {
	case "ack":
		return 1, nil, nil
	case "error":
		return 0, []string{string(reply.Payload)}, nil
	case "batch-verdicts":
		vs, err := vdp.DecodeBatchVerdicts(reply.Payload)
		if err != nil {
			return 0, nil, err
		}
		for _, v := range vs {
			if v.Accepted {
				accepted++
			} else {
				refused = append(refused, v.Reason)
			}
		}
		return accepted, refused, nil
	default:
		return 0, nil, fmt.Errorf("unexpected reply frame %q", reply.Kind)
	}
}

// --- server side -----------------------------------------------------------

// admitter is the admission surface the dispatch drives: a session, a
// cluster node, or a sketch session behind its contribution grouping.
type admitter interface {
	Submit(ctx context.Context, sub *vdp.ClientSubmission) error
	SubmitBatch(ctx context.Context, subs []*vdp.ClientSubmission) ([]vdp.BatchVerdict, error)
}

// batchAdmitter is what vdp.Session and cluster.Node have in common.
type batchAdmitter interface {
	Submit(ctx context.Context, sub *vdp.ClientSubmission) error
	SubmitBatch(ctx context.Context, subs []*vdp.ClientSubmission) ([]error, error)
}

type plainAdmitter struct{ batchAdmitter }

func (a plainAdmitter) SubmitBatch(ctx context.Context, subs []*vdp.ClientSubmission) ([]vdp.BatchVerdict, error) {
	errs, err := a.batchAdmitter.SubmitBatch(ctx, subs)
	if err != nil {
		return nil, err
	}
	return vdp.VerdictsFor(subs, errs), nil
}

// sketchAdmitter regroups a decoded frame into whole contributions (Rows
// consecutive submissions per client) and answers one verdict per
// contribution, as cmd/vdpserver's sketch mode does.
type sketchAdmitter struct {
	hs     *vdp.SketchSession
	layout sketch.Layout
}

func (a sketchAdmitter) Submit(context.Context, *vdp.ClientSubmission) error {
	return fmt.Errorf("a single submit frame cannot carry a %d-row contribution", a.layout.Rows)
}

func (a sketchAdmitter) SubmitBatch(ctx context.Context, subs []*vdp.ClientSubmission) ([]vdp.BatchVerdict, error) {
	rows := a.layout.Rows
	if len(subs) == 0 || len(subs)%rows != 0 {
		return nil, fmt.Errorf("sketch batch carries %d submissions, want a positive multiple of %d", len(subs), rows)
	}
	contribs := make([]*vdp.SketchContribution, 0, len(subs)/rows)
	for at := 0; at < len(subs); at += rows {
		contribs = append(contribs, &vdp.SketchContribution{ClientID: subs[at].Public.ID, Rows: subs[at : at+rows]})
	}
	errs, err := a.hs.SubmitBatch(ctx, contribs)
	if err != nil {
		return nil, err
	}
	vs := make([]vdp.BatchVerdict, len(contribs))
	for i, c := range contribs {
		vs[i].ID = c.ClientID
		if errs[i] != nil {
			vs[i].Reason = errs[i].Error()
		} else {
			vs[i].Accepted = true
		}
	}
	return vs, nil
}

// dispatch is the submit / submit-batch switch of cmd/vdpserver, with a span
// around each call into the product. logs are the traced stores the admitter
// writes through (none in an untraced pass): their spans hang under the admit
// span that causes them.
func (d *deployment) dispatch(adm admitter, tr *tracer, logs ...*tracedLog) transport.Handler {
	if d.wrapAdmit != nil {
		adm = d.wrapAdmit(adm)
	}
	admit := func(h int32, fn func() error) error {
		a := tr.begin(spanAdmit, h)
		for _, l := range logs {
			l.parent.Store(a)
		}
		err := fn()
		for _, l := range logs {
			l.parent.Store(0)
		}
		tr.end(a)
		return err
	}
	return func(f *transport.Frame) ([]*transport.Frame, error) {
		h := tr.begin(spanHandle, tr.parentTop())
		defer tr.end(h)
		if tr.active() {
			tr.c.nodeFrames.Add(1)
		}
		switch f.Kind {
		case "submit":
			s := tr.begin(spanDecode, h)
			sub, err := d.pub.DecodeSubmitPayload(f.Payload)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			if err := admit(h, func() error { return adm.Submit(d.ctx, sub) }); err != nil {
				return nil, err
			}
			return []*transport.Frame{{Kind: "ack", Payload: []byte("accepted")}}, nil
		case "submit-batch":
			s := tr.begin(spanDecode, h)
			subs, err := d.pub.DecodeSubmissionBatch(f.Payload)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			var vs []vdp.BatchVerdict
			if err := admit(h, func() (err error) { vs, err = adm.SubmitBatch(d.ctx, subs); return err }); err != nil {
				return nil, err
			}
			s = tr.begin(spanEncode, h)
			reply := vdp.EncodeBatchVerdicts(vs)
			tr.end(s)
			return []*transport.Frame{{Kind: "batch-verdicts", Payload: reply}}, nil
		default:
			return nil, fmt.Errorf("unexpected frame kind %q", f.Kind)
		}
	}
}

// --- traced store ----------------------------------------------------------

// tracedLog is a store.BoardLog handed to SessionOptions.Store in the traced
// pass: it forwards to the real log and records a span and the work counts
// around every call. It always offers the group-commit surface the session
// looks for; over a log without one, AppendNoSync is a plain Append and Sync
// has nothing left to do — the same calls the session would make itself.
type tracedLog struct {
	inner  store.BoardLog
	gc     groupCommitLog // inner's own group-commit surface, if it has one
	tr     *tracer
	parent atomic.Int32 // the admit span in progress on this log's session
	op     atomic.Int32 // the store span in progress (a mirror call's parent)
	replay struct {     // Replay scans, counted whether or not the tracer is on
		ns, records atomic.Int64
	}
}

type groupCommitLog interface {
	AppendNoSync(*store.Record) error
	Sync() error
}

func newTracedLog(inner store.BoardLog, tr *tracer) *tracedLog {
	gc, _ := inner.(groupCommitLog)
	return &tracedLog{inner: inner, gc: gc, tr: tr}
}

func (l *tracedLog) span(name string, fn func() error) error {
	id := l.tr.begin(name, l.parent.Load())
	l.op.Store(id)
	err := fn()
	l.op.Store(0)
	l.tr.end(id)
	return err
}

func (l *tracedLog) count(rec *store.Record, syncs int64) {
	if !l.tr.active() {
		return
	}
	c := &l.tr.c
	c.records.Add(1)
	c.recordBytes.Add(int64(len(rec.Payload)) + 13) // length, kind, epoch and CRC framing
	c.syncs.Add(syncs)
	if rec.Kind == vdp.RecordBudgetCharge {
		c.ledgerRecs.Add(1)
	}
}

func (l *tracedLog) Append(rec *store.Record) error {
	l.count(rec, 1)
	return l.span(spanAppendSync, func() error { return l.inner.Append(rec) })
}

func (l *tracedLog) AppendNoSync(rec *store.Record) error {
	if l.gc == nil {
		return l.Append(rec)
	}
	l.count(rec, 0)
	return l.span(spanAppend, func() error { return l.gc.AppendNoSync(rec) })
}

func (l *tracedLog) Sync() error {
	if l.gc == nil {
		return nil
	}
	if l.tr.active() {
		l.tr.c.syncs.Add(1)
	}
	return l.span(spanSync, l.gc.Sync)
}

func (l *tracedLog) Snapshot() ([]*store.Record, error) { return l.inner.Snapshot() }
func (l *tracedLog) Close() error                       { return l.inner.Close() }

// Replay times the store's share of a scan: the time inside Replay minus the
// time inside the caller's callback.
func (l *tracedLog) Replay(fn func(*store.Record) error) error {
	var inFn time.Duration
	var n int64
	t0 := time.Now()
	err := l.inner.Replay(func(rec *store.Record) error {
		c0 := time.Now()
		err := fn(rec)
		inFn += time.Since(c0)
		n++
		return err
	})
	l.replay.ns.Add(int64(time.Since(t0) - inFn))
	l.replay.records.Add(n)
	return err
}

// tracedMirror wraps the MirrorFunc a ReplicatedLog ships records through; the
// span hangs under whichever store call on front triggered the mirror.
func tracedMirror(m store.MirrorFunc, tr *tracer, front func() *tracedLog) store.MirrorFunc {
	return func(start int, recs []*store.Record) (int, error) {
		var parent int32
		if l := front(); l != nil {
			parent = l.op.Load()
		}
		id := tr.begin(spanMirror, parent)
		if tr.active() {
			tr.c.mirrors.Add(1)
		}
		n, err := m(start, recs)
		tr.end(id)
		return n, err
	}
}

// --- boards ----------------------------------------------------------------

// board is one booted system: servers in this process on loopback, ready for
// an epoch's lifecycle. The runner drives the same seven steps on all three.
type board interface {
	Addr() string // where gateways dial
	// TailCatchUp opens a fresh audit tail and feeds it every record on the
	// board, returning the time spent on records other than seals.
	TailCatchUp() (time.Duration, error)
	// Finalize seals the epoch and returns its transcript digest.
	Finalize() ([]byte, error)
	// TailCertify feeds the tail what Finalize appended and returns the time
	// from seal record delivered to tail verdict; the verdict must equal digest.
	TailCertify(digest []byte) (time.Duration, error)
	// Audit re-verifies the sealed epoch offline.
	Audit() error
	// Shutdown stops the servers and closes the logs, as a crash would.
	Shutdown()
	// Resume boots from the log Shutdown left behind.
	Resume() error
	// Close releases everything and deletes the board's files.
	Close()
}

// boot starts the workload's board. tr is nil in an untraced pass.
func (d *deployment) boot(tr *tracer) (board, error) {
	switch d.w.kind {
	case kindCluster:
		return d.bootCluster(tr)
	case kindSketch:
		return d.bootSketch(tr)
	default:
		return d.bootNode(tr)
	}
}

// nodeBoard is a single node: one Session over a durable FileLog (fsync on)
// behind one transport listener.
type nodeBoard struct {
	d    *deployment
	tr   *tracer
	dir  string
	log  *store.FileLog
	slog *tracedLog // the traced front of log, nil in an untraced pass
	sess *vdp.Session
	srv  *transport.Server

	tail    *vdp.TailAuditor
	tailer  store.Tailer
	certify time.Duration
}

func (d *deployment) bootNode(tr *tracer) (*nodeBoard, error) {
	dir, err := os.MkdirTemp(d.scratch, d.w.name+"-")
	if err != nil {
		return nil, err
	}
	b := &nodeBoard{d: d, tr: tr, dir: dir}
	if err := b.open(); err != nil {
		b.Close()
		return nil, err
	}
	if b.sess, err = vdp.NewSession(d.pub, b.options()); err != nil {
		b.Close()
		return nil, err
	}
	var logs []*tracedLog
	if b.slog != nil {
		logs = append(logs, b.slog)
	}
	if b.srv, err = transport.Listen("127.0.0.1:0", d.dispatch(plainAdmitter{b.sess}, tr, logs...)); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

func (b *nodeBoard) open() (err error) {
	if b.log, err = store.OpenFileLog(filepath.Join(b.dir, "board.log")); err != nil {
		return err
	}
	if b.tr != nil {
		b.slog = newTracedLog(b.log, b.tr)
	}
	return nil
}

func (b *nodeBoard) options() vdp.SessionOptions {
	opts := vdp.SessionOptions{Store: b.log, Rand: b.d.sessionSeed()}
	if b.slog != nil {
		opts.Store = b.slog
	}
	return opts
}

func (b *nodeBoard) Addr() string { return b.srv.Addr() }

// NextEpoch closes a sealed epoch and opens the next on the same board.
func (b *nodeBoard) NextEpoch() error { return b.sess.Reset() }

func (b *nodeBoard) TailCatchUp() (time.Duration, error) {
	t, err := b.log.Tail()
	if err != nil {
		return 0, err
	}
	b.tailer, b.tail, b.certify = t, vdp.NewTailAuditor(b.d.pub, vdp.TailOptions{}), 0
	return b.drain()
}

// drain feeds the tail every record available, timing seal records apart
// from the rest (reading the record from the log counts with it).
func (b *nodeBoard) drain() (time.Duration, error) {
	var catchUp time.Duration
	for {
		t0 := time.Now()
		rec, off, err := b.tailer.Next()
		if errors.Is(err, store.ErrNoRecord) {
			return catchUp, nil
		}
		if err != nil {
			return 0, err
		}
		if err := b.tail.Feed(rec, off); err != nil {
			return 0, err
		}
		if rec.Kind == vdp.RecordSeal || rec.Kind == vdp.RecordSealChunk {
			b.certify += time.Since(t0)
		} else {
			catchUp += time.Since(t0)
		}
	}
}

func (b *nodeBoard) Finalize() ([]byte, error) {
	res, err := b.sess.Finalize(b.d.ctx)
	if err != nil {
		return nil, err
	}
	return vdp.TranscriptDigest(b.d.pub, res.Transcript), nil
}

func (b *nodeBoard) TailCertify(digest []byte) (time.Duration, error) {
	if _, err := b.drain(); err != nil {
		return 0, err
	}
	got, ok := b.tail.VerifiedDigest(0)
	b.closeTail()
	if !ok || !bytes.Equal(got, digest) {
		return 0, fmt.Errorf("tail audit did not certify epoch 0 with the sealed digest")
	}
	return b.certify, nil
}

func (b *nodeBoard) closeTail() {
	if b.tail != nil {
		b.tail.Close()
		b.tailer.Close()
		b.tail, b.tailer = nil, nil
	}
}

func (b *nodeBoard) Audit() error { return vdp.AuditLog(b.d.ctx, b.d.pub, b.log, 0, 0) }

func (b *nodeBoard) Shutdown() {
	b.closeTail()
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	if b.log != nil {
		b.log.Close()
		b.log = nil
	}
	b.sess = nil
}

func (b *nodeBoard) Resume() (err error) {
	if err = b.open(); err != nil {
		return err
	}
	if b.sess, err = vdp.ResumeSession(b.d.ctx, b.d.pub, b.options()); err != nil {
		return err
	}
	// A lifecycle board reboots into its sealed epoch 0; a replay board into
	// its last epoch, still open, with every submission back on the roster.
	open := b.d.w.boardEpochs > 1
	if b.sess.Finalized() == open || b.sess.Epoch() != max(1, b.d.w.boardEpochs)-1 ||
		(open && b.sess.Submitted() != b.d.w.clients) {
		return fmt.Errorf("resumed at epoch %d with %d submissions (finalized %v), not where the board was left",
			b.sess.Epoch(), b.sess.Submitted(), b.sess.Finalized())
	}
	return nil
}

// SnapshotBoot seals and compacts the resumed board, then times a reboot that
// starts from the snapshot instead of replaying the epoch.
func (b *nodeBoard) SnapshotBoot() (time.Duration, error) {
	if !b.sess.Finalized() {
		if _, err := b.sess.Finalize(b.d.ctx); err != nil {
			return 0, err
		}
	}
	if err := b.sess.Compact(); err != nil {
		return 0, err
	}
	b.Shutdown()
	t0 := time.Now()
	if err := b.open(); err != nil {
		return 0, err
	}
	sess, err := vdp.ResumeSession(b.d.ctx, b.d.pub, b.options())
	if err != nil {
		return 0, err
	}
	b.sess = sess
	return time.Since(t0), nil
}

func (b *nodeBoard) Close() {
	b.Shutdown()
	os.RemoveAll(b.dir)
}

// clusterBoard is cluster-2x2-batch64: a Router in front of two shards, each
// a primary Node whose board and seal logs mirror to a Standby before any
// ack. Every log is a MemLog, so the disk does nothing and the hops show.
type clusterBoard struct {
	d      *deployment
	tr     *tracer
	router *cluster.Router
	rsrv   *transport.Server
	// per shard
	primaries []*transport.Server
	standbys  []*cluster.Standby
	boards    []*store.ReplicatedLog
	seals     []*store.ReplicatedLog
	closers   []func()

	follower *cluster.TailFollower
}

func (d *deployment) bootCluster(tr *tracer) (*clusterBoard, error) {
	b := &clusterBoard{d: d, tr: tr}
	ok := false
	defer func() {
		if !ok {
			b.Close()
		}
	}()
	specs := make([]string, clusterK)
	for i := 0; i < clusterK; i++ {
		sb, err := cluster.NewStandby(d.ctx, d.pub, cluster.StandbyConfig{
			Shard: i, Shards: clusterK, Board: store.NewMemLog(), Seal: store.NewMemLog(),
			SessionOpts: vdp.SessionOptions{Rand: d.sessionSeed()},
		})
		if err != nil {
			return nil, err
		}
		b.standbys = append(b.standbys, sb)
		sbSrv, err := transport.Listen("127.0.0.1:0", d.standbyHandler(sb))
		if err != nil {
			return nil, err
		}
		b.closers = append(b.closers, func() { sbSrv.Close() })
		repl := cluster.NewReplicator(sbSrv.Addr(), i, clusterK, transport.ClientOptions{Timeout: rpcTimeout, Retry: backendRetry})
		b.closers = append(b.closers, repl.Close)

		var front *tracedLog
		mirror := func(id uint8) store.MirrorFunc {
			if tr == nil {
				return repl.Mirror(id)
			}
			return tracedMirror(repl.Mirror(id), tr, func() *tracedLog { return front })
		}
		boardLog, err := store.NewReplicatedLog(store.NewMemLog(), mirror(cluster.ReplLogBoard))
		if err != nil {
			return nil, err
		}
		sealLog, err := store.NewReplicatedLog(store.NewMemLog(), mirror(cluster.ReplLogSeal))
		if err != nil {
			return nil, err
		}
		b.boards, b.seals = append(b.boards, boardLog), append(b.seals, sealLog)

		opts := vdp.SessionOptions{Rand: d.sessionSeed(), Store: boardLog}
		var logs []*tracedLog
		if tr != nil {
			front = newTracedLog(boardLog, tr)
			opts.Store = front
			logs = append(logs, front)
		}
		sess, err := vdp.NewShardSession(d.pub, opts, i, clusterK)
		if err != nil {
			return nil, err
		}
		// The node keeps the raw replicated log: its status and log RPCs need
		// the mirrored-prefix view only that type offers.
		node, err := cluster.NewNode(d.ctx, d.pub, sess, cluster.NodeConfig{Shard: i, Shards: clusterK, BoardLog: boardLog, SealLog: sealLog})
		if err != nil {
			return nil, err
		}
		prSrv, err := transport.Listen("127.0.0.1:0", d.nodeHandler(node, tr, logs...))
		if err != nil {
			return nil, err
		}
		b.primaries = append(b.primaries, prSrv)
		specs[i] = prSrv.Addr() + "~" + sbSrv.Addr()
	}
	var err error
	if b.router, err = cluster.New(cluster.Config{Pub: d.pub, Backends: specs, Timeout: rpcTimeout, Retry: backendRetry}); err != nil {
		return nil, err
	}
	route := b.router.Handler()
	if b.rsrv, err = transport.Listen("127.0.0.1:0", func(f *transport.Frame) ([]*transport.Frame, error) {
		id := tr.begin(spanRouter, tr.parentTop())
		if id != 0 {
			tr.top.Store(id)
		}
		out, err := route(f)
		tr.end(id)
		return out, err
	}); err != nil {
		return nil, err
	}
	ok = true
	return b, nil
}

// nodeHandler is the frame dispatch of a cluster node: the cluster RPC plus
// the ordinary admission kinds.
func (d *deployment) nodeHandler(node *cluster.Node, tr *tracer, logs ...*tracedLog) transport.Handler {
	admission := d.dispatch(plainAdmitter{node}, tr, logs...)
	return func(f *transport.Frame) ([]*transport.Frame, error) {
		if cluster.IsRPC(f.Kind) {
			return node.Handle(f), nil
		}
		return admission(f)
	}
}

// standbyHandler serves the replica RPC until promotion and the full node
// dispatch afterwards.
func (d *deployment) standbyHandler(sb *cluster.Standby) transport.Handler {
	return func(f *transport.Frame) ([]*transport.Frame, error) {
		if cluster.IsRPC(f.Kind) {
			return sb.Handle(f), nil
		}
		node := sb.Node()
		if node == nil {
			return nil, fmt.Errorf("standby does not take submissions until promoted")
		}
		return d.nodeHandler(node, nil)(f)
	}
}

func (b *clusterBoard) Addr() string { return b.rsrv.Addr() }

func (b *clusterBoard) TailCatchUp() (time.Duration, error) {
	backends := make([]*cluster.Backend, clusterK)
	for i, srv := range b.primaries {
		backends[i] = cluster.NewBackend([]string{srv.Addr()}, i, transport.ClientOptions{Timeout: rpcTimeout})
		b.closers = append(b.closers, backends[i].Close)
	}
	t0 := time.Now()
	f, err := cluster.NewTailFollower(b.d.pub, backends, vdp.TailOptions{})
	if err != nil {
		return 0, err
	}
	b.follower = f
	if _, err := f.Poll(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (b *clusterBoard) Finalize() ([]byte, error) {
	res, err := b.router.FinalizeMerge(b.d.ctx)
	if err != nil {
		return nil, err
	}
	return res.Digest, nil
}

func (b *clusterBoard) TailCertify(digest []byte) (time.Duration, error) {
	t0 := time.Now()
	if _, err := b.follower.Poll(); err != nil {
		return 0, err
	}
	_, got, ready, err := b.follower.VerifyNext()
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if !ready || !bytes.Equal(got, digest) {
		return 0, fmt.Errorf("cluster tail did not certify the merged epoch with the sealed digest")
	}
	return d, nil
}

func (b *clusterBoard) Audit() error {
	report, err := b.router.AuditCluster(b.d.ctx, -1, 0)
	if err != nil {
		return err
	}
	if report.Source != "logs" {
		return fmt.Errorf("cluster audit was %s-grade, want log-grade", report.Source)
	}
	return nil
}

func (b *clusterBoard) Shutdown() {
	if b.rsrv != nil {
		b.rsrv.Close()
		b.rsrv = nil
	}
	if b.router != nil {
		b.router.Close()
		b.router = nil
	}
	for _, srv := range b.primaries {
		srv.Close()
	}
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.closers = nil
}

// Resume reboots shard 0's node from its own board log, as an operator
// restarting that process would.
func (b *clusterBoard) Resume() error {
	sess, err := vdp.ResumeShardSession(b.d.ctx, b.d.pub, vdp.SessionOptions{Rand: b.d.sessionSeed(), Store: b.boards[0]}, 0, clusterK)
	if err != nil {
		return err
	}
	if _, err := cluster.NewNode(b.d.ctx, b.d.pub, sess, cluster.NodeConfig{Shard: 0, Shards: clusterK, BoardLog: b.boards[0], SealLog: b.seals[0]}); err != nil {
		return err
	}
	if !sess.Finalized() {
		return fmt.Errorf("shard 0 resumed an unsealed epoch")
	}
	return nil
}

func (b *clusterBoard) Close() { b.Shutdown() }

// sketchBoard is sketch-hh: a SketchSession (one sub-session per count-min
// row, the budget ledger on row 0) over a row-segmented durable store.
type sketchBoard struct {
	d     *deployment
	tr    *tracer
	dir   string
	seg   *store.SegmentedLog
	hs    *vdp.SketchSession
	srv   *transport.Server
	tail  *vdp.SegmentedTail
	query time.Duration // the last Finalize's HeavyHitters query
}

func (d *deployment) bootSketch(tr *tracer) (*sketchBoard, error) {
	dir, err := os.MkdirTemp(d.scratch, d.w.name+"-")
	if err != nil {
		return nil, err
	}
	b := &sketchBoard{d: d, tr: tr, dir: dir}
	if b.seg, err = store.OpenSegmentedLog(dir, d.layout.Rows); err != nil {
		b.Close()
		return nil, err
	}
	var logs []*tracedLog
	if tr != nil {
		for r := 0; r < d.layout.Rows; r++ {
			l := newTracedLog(b.seg.Segment(r), tr)
			b.seg.SetBoard(r, l)
			logs = append(logs, l)
		}
	}
	if b.hs, err = vdp.NewSketchSession(d.pub, d.layout, b.options()); err != nil {
		b.Close()
		return nil, err
	}
	if b.srv, err = transport.Listen("127.0.0.1:0", d.dispatch(sketchAdmitter{b.hs, d.layout}, tr, logs...)); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

func (b *sketchBoard) options() vdp.SessionOptions {
	return vdp.SessionOptions{Segmented: b.seg, Budget: b.d.budget, Rand: b.d.sessionSeed()}
}

func (b *sketchBoard) Addr() string     { return b.srv.Addr() }
func (b *sketchBoard) NextEpoch() error { return b.hs.Reset() }

func (b *sketchBoard) TailCatchUp() (time.Duration, error) {
	t0 := time.Now()
	t, err := vdp.TailSketchLog(b.d.pub, b.d.layout, b.seg, vdp.TailOptions{Budget: b.d.budget})
	if err != nil {
		return 0, err
	}
	b.tail = t
	if _, err := t.Poll(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (b *sketchBoard) Finalize() ([]byte, error) {
	res, err := b.hs.Finalize(b.d.ctx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	top := res.Sketch.HeavyHitters(8)
	b.query = time.Since(t0)
	if len(top) != 8 {
		return nil, fmt.Errorf("heavy-hitters query returned %d items, want 8", len(top))
	}
	return res.Digest, nil
}

func (b *sketchBoard) TailCertify(digest []byte) (time.Duration, error) {
	t0 := time.Now()
	if _, err := b.tail.Poll(); err != nil {
		return 0, err
	}
	got, ready, err := b.tail.VerifyMerged(0)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	b.closeTail()
	if !ready || !bytes.Equal(got, digest) {
		return 0, fmt.Errorf("sketch tail did not certify epoch 0 with the sealed digest")
	}
	return d, nil
}

func (b *sketchBoard) closeTail() {
	if b.tail != nil {
		b.tail.Close()
		b.tail = nil
	}
}

func (b *sketchBoard) Audit() error {
	return vdp.AuditSketchLog(b.d.ctx, b.d.pub, b.d.layout, b.seg, 0, 0)
}

func (b *sketchBoard) Shutdown() {
	b.closeTail()
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	if b.seg != nil {
		b.seg.Close()
		b.seg = nil
	}
	b.hs = nil
}

func (b *sketchBoard) Resume() (err error) {
	if b.seg, err = store.OpenSegmentedLog(b.dir, 0); err != nil {
		return err
	}
	if b.hs, err = vdp.ResumeSketchSession(b.d.ctx, b.d.pub, b.d.layout, b.options()); err != nil {
		return err
	}
	if !b.hs.Finalized() {
		return fmt.Errorf("sketch session resumed an unsealed epoch")
	}
	return nil
}

func (b *sketchBoard) Close() {
	b.Shutdown()
	os.RemoveAll(b.dir)
}

// --- correctness cross-checks ----------------------------------------------

// crossCheck runs the gate's workload-specific half on a board whose gate
// epoch (honest, tampered, duplicate, in that order over one connection) has
// just sealed to digest.
//
// Cluster: the merged digest must equal what one process running the same
// two shards in-process seals for the same submissions and seed. Sketch: the
// first honest client, whose one-epoch budget is now spent, must be refused
// in the next epoch with the budget verdict.
func (d *deployment) crossCheck(b board, in *inputs, digest []byte) error {
	switch sb := b.(type) {
	case *clusterBoard:
		ss, err := vdp.NewShardedSession(d.pub, vdp.SessionOptions{Shards: clusterK, Rand: d.sessionSeed()})
		if err != nil {
			return err
		}
		frames := append(append([]request(nil), in.gate.honest...), in.gate.tampered, in.gate.duplicate)
		for _, rq := range frames {
			subs, err := d.pub.DecodeSubmissionBatch(rq.payload)
			if err != nil {
				return err
			}
			if _, err := ss.SubmitBatch(d.ctx, subs); err != nil {
				return err
			}
		}
		res, err := ss.Finalize(d.ctx)
		if err != nil {
			return err
		}
		if !bytes.Equal(res.Digest, digest) {
			return fmt.Errorf("cluster merged digest %x differs from the in-process %d-shard session's %x", digest[:8], clusterK, res.Digest[:8])
		}
	case *sketchBoard:
		if err := sb.NextEpoch(); err != nil {
			return err
		}
		gw, err := dialGateway(sb.Addr(), nil)
		if err != nil {
			return err
		}
		defer gw.close()
		accepted, refused, err := gw.roundTrip(in.gate.duplicate)
		if err != nil {
			return err
		}
		if accepted != 0 || len(refused) != 1 || !strings.Contains(refused[0], "privacy budget exhausted") {
			return fmt.Errorf("over-budget client %d was not refused with the budget verdict (accepted %d, reasons %q)", in.gate.dupID, accepted, refused)
		}
	}
	return nil
}

// failoverDrill boots a fresh cluster, lands one frame, kills shard 0's
// primary, and times the next routed submission owned by that shard: failure
// detection, the fenced promotion handshake and the replay.
func (d *deployment) failoverDrill(in *inputs) (time.Duration, error) {
	b, err := d.bootCluster(nil)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	gw, err := dialGateway(b.Addr(), nil)
	if err != nil {
		return 0, err
	}
	defer gw.close()
	first := in.epochs[0][0]
	if accepted, _, err := gw.roundTrip(first); err != nil || accepted != first.subs {
		return 0, fmt.Errorf("drill warm-up frame: %d of %d accepted: %v", accepted, first.subs, err)
	}
	if _, err := b.router.Statuses(); err != nil {
		return 0, err
	}
	b.primaries[0].Close()
	t0 := time.Now()
	accepted, refused, err := gw.roundTrip(in.gate.drill)
	took := time.Since(t0)
	if err != nil || accepted != 1 {
		return 0, fmt.Errorf("submission after the kill: accepted %d, refused %q: %v", accepted, refused, err)
	}
	if !b.standbys[0].Promoted() {
		return 0, fmt.Errorf("shard 0's standby was not promoted")
	}
	return took, nil
}

// --- replay probes ---------------------------------------------------------

// probes times the primitives under the admission and finalize paths, in
// isolation and outside the request path, on material shaped like the
// workload's own frames: n proofs per fold, 4n terms per multi-exponentiation
// for a frame of n bit-proof clients. Values are µs (allocation counts for
// the two *_allocs_per_sub).
func (d *deployment) probes(in *inputs, reps int) (map[string]float64, error) {
	out := make(map[string]float64)
	pp, f, g := d.pub.Params(), d.pub.Field(), d.pub.Params().Group()
	rnd := seedStream(d.seed, "probe", 0)
	us := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	n := len(in.probe)

	// group and commitment unit costs.
	k := f.MustRand(rnd)
	t0 := time.Now()
	for i := 0; i < 32*reps; i++ {
		g.Exp(pp.H(), k)
	}
	out["group.exp_us"] = us(time.Since(t0), 32*reps)
	x := f.One()
	pp.CommitWith(x, k) // warm the fixed-base tables
	t0 = time.Now()
	for i := 0; i < 64*reps; i++ {
		pp.CommitWith(x, k)
	}
	out["pedersen.commit_us"] = us(time.Since(t0), 64*reps)

	// Σ-OR bit proofs: fold n into one batch, check it with one
	// multi-exponentiation; the same multi-exponentiation on its own.
	cs := make([]*pedersen.Commitment, n)
	ps := make([]*sigma.BitProof, n)
	ctx := []byte("vdp-bench/probe")
	for i := range cs {
		bit := f.FromInt64(int64(i % 2))
		c, r, err := pp.Commit(bit, rnd)
		if err != nil {
			return nil, err
		}
		if ps[i], err = sigma.ProveBit(pp, c, bit, r, ctx, rnd); err != nil {
			return nil, err
		}
		cs[i] = c
	}
	var fold, check time.Duration
	for rep := 0; rep < reps; rep++ {
		batch := sigma.NewBitBatch(pp, rnd)
		t0 = time.Now()
		for i := range cs {
			if err := batch.Add(cs[i], ps[i], ctx); err != nil {
				return nil, err
			}
		}
		fold += time.Since(t0)
		t0 = time.Now()
		if err := batch.Check(0); err != nil {
			return nil, err
		}
		check += time.Since(t0)
	}
	out["sigma.fold_us_per_proof"] = us(fold, n*reps)
	out["sigma.check_us_per_proof"] = us(check, n*reps)

	bases := make([]group.Element, 0, 4*n)
	exps := make([]*field.Element, 0, 4*n)
	for i := 0; i < 4*n; i++ {
		bases = append(bases, cs[i%n].Element())
		exps = append(exps, f.MustRand(rnd))
	}
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		group.MultiExpPippenger(g, bases, exps)
	}
	out["group.multiexp_us_per_term"] = us(time.Since(t0), 4*n*reps)

	// One-hot folding, at the workload's own width (histogram workloads only).
	if m := d.pub.Bins(); m > 1 {
		vec := make([]*field.Element, m)
		for j := range vec {
			vec[j] = f.Zero()
		}
		vec[1] = f.One()
		vcs, vos, err := pp.VectorCommit(vec, rnd)
		if err != nil {
			return nil, err
		}
		ohp, err := sigma.ProveOneHot(pp, vcs, vos, ctx, rnd)
		if err != nil {
			return nil, err
		}
		batch := sigma.NewBitBatch(pp, rnd)
		t0 = time.Now()
		for rep := 0; rep < 4*reps; rep++ {
			if err := batch.AddOneHot(vcs, ohp, ctx); err != nil {
				return nil, err
			}
		}
		out["sigma.onehot_fold_us_per_proof"] = us(time.Since(t0), 4*reps)
		if err := batch.Check(0); err != nil {
			return nil, err
		}
	}

	// The workload's own clients: unfolded verification and opening checks.
	single := min(n, 4*reps)
	t0 = time.Now()
	for _, u := range in.probe[:single] {
		if err := d.pub.VerifyClient(u[0].Public); err != nil {
			return nil, err
		}
	}
	out["sigma.verify_single_us"] = us(time.Since(t0), single)
	t0 = time.Now()
	for _, u := range in.probe {
		sub := u[0]
		col := make([]*pedersen.Commitment, len(sub.Public.ShareCommitments))
		for j, row := range sub.Public.ShareCommitments {
			col[j] = row[0]
		}
		if err := pp.CheckOpenings(col, sub.Payloads[0].Openings); err != nil {
			return nil, err
		}
	}
	out["pedersen.openings_us_per_sub"] = us(time.Since(t0), n)

	// Public coins: one two-party Morra batch of the deployment's coin count.
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		if _, err := morra.RunBits(pp, 2, d.pub.Coins(), rnd); err != nil {
			return nil, err
		}
	}
	out["morra.run_us_per_coin"] = us(time.Since(t0), d.pub.Coins()*reps)

	// Allocations: decoding the first frame, and admitting it to a session
	// with no store behind it.
	first := in.epochs[0][0]
	decode := func() ([]*vdp.ClientSubmission, error) {
		if first.kind == "submit" {
			sub, err := d.pub.DecodeSubmitPayload(first.payload)
			return []*vdp.ClientSubmission{sub}, err
		}
		return d.pub.DecodeSubmissionBatch(first.payload)
	}
	var subs []*vdp.ClientSubmission
	allocs, err := mallocs(func() (err error) { subs, err = decode(); return err })
	if err != nil {
		return nil, err
	}
	out["vdp.decode_allocs_per_sub"] = allocs / float64(first.subs)
	var adm admitter
	if d.w.kind == kindSketch {
		hs, err := vdp.NewSketchSession(d.pub, d.layout, vdp.SessionOptions{Budget: d.budget})
		if err != nil {
			return nil, err
		}
		adm = sketchAdmitter{hs, d.layout}
	} else {
		sess, err := vdp.NewSession(d.pub, vdp.SessionOptions{})
		if err != nil {
			return nil, err
		}
		adm = plainAdmitter{sess}
	}
	allocs, err = mallocs(func() error {
		if first.kind == "submit" {
			return adm.Submit(d.ctx, subs[0])
		}
		_, err := adm.SubmitBatch(d.ctx, subs)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["vdp.admit_allocs_per_sub"] = allocs / float64(first.subs)
	return out, nil
}

// mallocs counts the heap allocations fn makes (and any goroutine it starts
// and waits for), with nothing else running.
func mallocs(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), err
}

// layerExtras fills in the per-layer metrics that need the product beyond
// the spans: the replay probes, the store's share of a resume scan and the
// snapshot boot (node boards), the sketch query, and the failover drills.
func (d *deployment) layerExtras(r *runner, v map[string]float64) error {
	reps := 4
	if r.cfg.smoke {
		reps = 1
	}
	probed, err := d.probes(r.in, reps)
	if err != nil {
		return fmt.Errorf("replay probes: %w", err)
	}
	for name, x := range probed {
		v[name] = x
	}
	switch b := r.last.(type) {
	case *nodeBoard:
		if n := b.slog.replay.records.Load(); n > 0 {
			v["store.replay_us_per_record"] = float64(b.slog.replay.ns.Load()) / 1e3 / float64(n)
		}
		boot, err := b.SnapshotBoot()
		if err != nil {
			return fmt.Errorf("snapshot boot: %w", err)
		}
		v["vdp.resume_snapshot_ms"] = ms(boot)
	case *sketchBoard:
		v["sketch.query_us"] = float64(b.query.Nanoseconds()) / 1e3
	case *clusterBoard:
		var drills []float64
		for i := 0; i < failoverReps; i++ {
			took, err := d.failoverDrill(r.in)
			if err != nil {
				return fmt.Errorf("failover drill %d: %w", i, err)
			}
			drills = append(drills, ms(took))
		}
		v["cluster.failover_ms"] = median(drills)
	}
	return nil
}
