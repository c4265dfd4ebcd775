package vdp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/dp"
	"repro/internal/sketch"
)

// Verifiable heavy hitters over streaming telemetry.
//
// A SketchSession releases a count-min sketch instead of a single histogram:
// the layout's Rows independent hash rows are Rows independent ΠBin
// instances, each with bin count M = layout.Width. A client reporting item x
// submits one committed one-hot vector per row — bucket layout.Cell(r, x) in
// row r — built, proved, verified, logged, sealed, and audited by exactly
// the machinery a plain Session uses, so every cell of the released sketch
// carries the full verifiable-DP guarantee: committed inputs, Σ-OR
// well-formedness proofs, prover-supplied binomial noise flipped by public
// Morra coins, and a Line-13 product check per row.
//
// The rows ride the sharded-session infrastructure sideways: where a
// ShardedSession partitions *clients* across segments (ShardOf pins each ID
// to one shard), a SketchSession partitions the *statistic* — every client
// appears on every row, same ID, different one-hot position. Durable sketch
// sessions therefore use a store.SegmentedLog with one segment per row, and
// Finalize binds the epoch with the same merged-seal manifest record,
// shards = Rows. The deliberate asymmetry: the privacy-budget ledger lives
// on row 0 only. One admission = one charge, covering the client's whole
// multi-row contribution (the rows are one mechanism invocation, not Rows
// of them — the per-row noise compositions are accounted in the epoch cost
// the operator configures). Row 0 is always submitted first and acts as the
// budget gate: a client the ledger refuses never reaches rows 1..Rows-1.
//
// Querying the release is plain count-min arithmetic on DP estimates:
// PointQuery reads the minimum debiased estimate across rows, HeavyHitters
// enumerates the (bounded) item domain, and both attach the error bound
// dp.CountMinBound — the classic e·N/w overcount term plus a 3σ noise term.

// SketchContribution is one client's complete input to a sketch epoch: one
// ΠBin submission per layout row, in row order, all for the same client ID.
type SketchContribution struct {
	ClientID int
	Rows     []*ClientSubmission
}

// NewSketchContribution builds a contribution client-side: item's one-hot
// position in row r is layout.Cell(r, item), each row an independent ΠBin
// submission drawing fresh commitment randomness from rnd.
func (p *Public) NewSketchContribution(layout sketch.Layout, clientID, item int, rnd io.Reader) (*SketchContribution, error) {
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if p.Bins() != layout.Width {
		return nil, fmt.Errorf("%w: layout width %d but the protocol has %d bins", ErrBadConfig, layout.Width, p.Bins())
	}
	if item < 0 || item >= layout.Domain {
		return nil, fmt.Errorf("%w: item %d outside domain [0, %d)", ErrBadConfig, item, layout.Domain)
	}
	c := &SketchContribution{ClientID: clientID, Rows: make([]*ClientSubmission, layout.Rows)}
	for r := 0; r < layout.Rows; r++ {
		sub, err := p.NewClientSubmission(clientID, layout.Cell(r, item), rnd)
		if err != nil {
			return nil, err
		}
		c.Rows[r] = sub
	}
	return c, nil
}

// GroupContributions cuts a decoded submit-batch frame into whole sketch
// contributions: rows consecutive submissions per client, in row order — the
// exact shape a sketch client sends (EncodeSubmissionBatch over each
// contribution's row bundle, every row hinted). Each bundle is filed under its first row's
// client; SubmitBatch's shape check refuses one that is incomplete or mixes
// clients.
func GroupContributions(rows int, subs []*ClientSubmission) ([]*SketchContribution, error) {
	if rows < 1 || len(subs) == 0 || len(subs)%rows != 0 {
		return nil, fmt.Errorf("sketch batch carries %d submissions, want a positive multiple of %d (one per row)", len(subs), rows)
	}
	out := make([]*SketchContribution, 0, len(subs)/rows)
	for at := 0; at < len(subs); at += rows {
		c := &SketchContribution{Rows: subs[at : at+rows]}
		if first := c.Rows[0]; first != nil && first.Public != nil {
			c.ClientID = first.Public.ID
		}
		out = append(out, c)
	}
	return out, nil
}

// SketchSession runs one ΠBin Session per count-min row under a single
// lifecycle: Submit fans a contribution across the rows (row 0 first, as
// the budget gate), Finalize seals every row and assembles the released
// NoisySketch, and the epoch is pinned by one merged transcript digest.
//
// The lifecycle itself — Epoch, Finalized, Reset, Compact and the
// finalize fan-out with its crash-retry rules — is the segmented-session
// core (segmented.go), shared with ShardedSession: a row is a segment every
// client appears on, where a shard is a segment a client is pinned to.
type SketchSession struct {
	*segmentedSession
	layout sketch.Layout
}

// validateSketchOptions checks the option combinations every sketch
// constructor shares.
func validateSketchOptions(pub *Public, layout sketch.Layout, opts SessionOptions) error {
	if err := layout.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if pub.Bins() != layout.Width {
		return fmt.Errorf("%w: layout width %d but the protocol has %d bins", ErrBadConfig, layout.Width, pub.Bins())
	}
	if opts.Shards != 0 {
		return fmt.Errorf("%w: a sketch session's rows occupy the shard axis; SessionOptions.Shards must stay 0", ErrBadConfig)
	}
	if opts.Store != nil {
		return fmt.Errorf("%w: a sketch session stores its rows in SessionOptions.Segmented, not Store", ErrBadConfig)
	}
	if err := opts.Budget.validate(); err != nil {
		return err
	}
	if opts.Segmented != nil && opts.Segmented.Shards() != layout.Rows {
		return fmt.Errorf("%w: segmented log holds %d segments but the layout has %d rows", ErrBadConfig, opts.Segmented.Shards(), layout.Rows)
	}
	return nil
}

// NewSketchSession opens a sketch session over pub. The protocol's bin
// count must equal layout.Width — each row is one ΠBin instance over the
// row's buckets. A durable sketch session sets opts.Segmented with one
// segment per layout row (all empty; recover history with
// ResumeSketchSession). opts.Budget, when set, charges each client once per
// epoch — on row 0, at admission — for its whole multi-row contribution.
func NewSketchSession(pub *Public, layout sketch.Layout, opts SessionOptions) (*SketchSession, error) {
	return openSketchSession(context.Background(), pub, layout, opts, false)
}

func openSketchSession(ctx context.Context, pub *Public, layout sketch.Layout, opts SessionOptions, resume bool) (*SketchSession, error) {
	if err := validateSketchOptions(pub, layout, opts); err != nil {
		return nil, err
	}
	g, err := openSegmented(ctx, pub, opts, layout.Rows, rowSegments, resume)
	if err != nil {
		return nil, err
	}
	return &SketchSession{g, layout}, nil
}

// Rows returns the row count.
func (hs *SketchSession) Rows() int { return len(hs.segs) }

// Accepted returns how many whole contributions the current epoch holds:
// clients with a clean verdict on every row — the same definition SubmitBatch
// answers live (a nil verdict means every row admitted), recomputed from the
// rows so a recovered server counts exactly what the live one did. Row 0's
// own count is not it: row 0 admits a client a later row may still refuse.
func (hs *SketchSession) Accepted() int {
	clean := make(map[int]int)
	for _, s := range hs.segs {
		s.mu.Lock()
		for _, cl := range s.order {
			if cl.decided && cl.reject == nil {
				clean[cl.public.ID]++
			}
		}
		s.mu.Unlock()
	}
	n := 0
	for _, rows := range clean {
		if rows == len(hs.segs) {
			n++
		}
	}
	return n
}

// NewContribution builds a contribution with the session's deterministic
// client randomness — the local/testing counterpart of
// Public.NewSketchContribution, mirroring Session.NewClientSubmission.
func (hs *SketchSession) NewContribution(clientID, item int) (*SketchContribution, error) {
	if item < 0 || item >= hs.layout.Domain {
		return nil, fmt.Errorf("%w: item %d outside domain [0, %d)", ErrBadConfig, item, hs.layout.Domain)
	}
	c := &SketchContribution{ClientID: clientID, Rows: make([]*ClientSubmission, len(hs.segs))}
	for r := range hs.segs {
		sub, err := hs.segs[r].NewClientSubmission(clientID, hs.layout.Cell(r, item))
		if err != nil {
			return nil, err
		}
		c.Rows[r] = sub
	}
	return c, nil
}

// checkContribution validates a contribution's shape against the layout.
func (hs *SketchSession) checkContribution(c *SketchContribution) error {
	if c == nil || len(c.Rows) != len(hs.segs) {
		return fmt.Errorf("%w: a contribution needs one submission per layout row (%d)", ErrBadConfig, len(hs.segs))
	}
	for r, sub := range c.Rows {
		if sub == nil || sub.Public == nil {
			return fmt.Errorf("%w: contribution row %d is empty", ErrBadConfig, r)
		}
		if sub.Public.ID != c.ClientID {
			return fmt.Errorf("%w: contribution row %d carries client %d, want %d", ErrBadConfig, r, sub.Public.ID, c.ClientID)
		}
	}
	return nil
}

// Submit admits one client's contribution — a batch of one through
// SubmitBatch, whose row-0 gate and fan-out are the only ones. The return
// value is the contribution's verdict (row 0's verbatim, a later row's
// wrapped with its row index) unless the batch itself failed.
func (hs *SketchSession) Submit(ctx context.Context, c *SketchContribution) error {
	verdicts, err := hs.SubmitBatch(ctx, []*SketchContribution{c})
	if err != nil {
		return err
	}
	return verdicts[0]
}

// SubmitBatch admits contributions through each row's admission pipeline
// (one Σ-OR batch verification, one group-commit fsync per row). Row 0's
// batch runs first and is the gate: its verdict — a budget refusal, a
// duplicate, a proof rejection — is the client-facing one, returned verbatim,
// and only its survivors are forwarded to rows 1..Rows-1, which run in
// parallel; a rejection there is wrapped with its row index. The budget
// charge, when configured, lands on row 0's board at admission and covers the
// whole contribution. verdicts[i] is contribution i's outcome as
// Session.SubmitBatch reports it: nil for admitted, the client's attributable
// rejection otherwise. err is reserved for malformed contributions and
// infrastructure failures.
func (hs *SketchSession) SubmitBatch(ctx context.Context, contribs []*SketchContribution) ([]error, error) {
	for _, c := range contribs {
		if err := hs.checkContribution(c); err != nil {
			return nil, err
		}
	}
	if err := hs.admitting(); err != nil {
		return nil, err
	}
	verdicts := make([]error, len(contribs))
	col := make([]*ClientSubmission, len(contribs))
	for i, c := range contribs {
		col[i] = c.Rows[0]
	}
	v0, err := hs.segs[0].SubmitBatch(ctx, col)
	if err != nil {
		return nil, err
	}
	var survivors []int
	for i, v := range v0 {
		verdicts[i] = v
		if v == nil {
			survivors = append(survivors, i)
		}
	}
	if len(hs.segs) == 1 || len(survivors) == 0 {
		return verdicts, nil
	}
	var mu sync.Mutex
	ferr := forEach(ctx, len(hs.segs)-1, len(hs.segs)-1, func(i int) error {
		r := i + 1
		colR := make([]*ClientSubmission, len(survivors))
		for j, c := range survivors {
			colR[j] = contribs[c].Rows[r]
		}
		vr, err := hs.segs[r].SubmitBatch(ctx, colR)
		if err != nil {
			return fmt.Errorf("vdp: sketch row %d: %w", r, err)
		}
		mu.Lock()
		for j, v := range vr {
			if v != nil && verdicts[survivors[j]] == nil {
				verdicts[survivors[j]] = fmt.Errorf("vdp: sketch row %d: %w", r, v)
			}
		}
		mu.Unlock()
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	return verdicts, nil
}

// SketchResult is a finalized sketch epoch: the per-row protocol results,
// the assembled query-ready sketch, the merged transcript digest pinning
// the epoch, and the union of per-row client rejections.
type SketchResult struct {
	Rows            []*RunResult
	Sketch          *NoisySketch
	Digest          []byte
	RejectedClients map[int]error
}

// Finalize seals every row in parallel and assembles the released sketch.
// Crash-retry is the segmented core's contract (segmentedSession.finalize),
// shared with ShardedSession: a row sealed by an earlier attempt contributes
// its kept transcript, a failed merged-seal manifest append reopens the
// session for an in-process retry, and a row consumed by a protocol error
// spends the epoch.
func (hs *SketchSession) Finalize(ctx context.Context) (*SketchResult, error) {
	out := new(SketchResult)
	var err error
	if out.Rows, out.RejectedClients, out.Digest, err = hs.finalize(ctx); err != nil {
		return nil, err
	}
	out.Sketch = hs.assembleSketch(out.Rows)
	return out, nil
}

// assembleSketch lifts the per-row releases into one query-ready sketch.
func (hs *SketchSession) assembleSketch(results []*RunResult) *NoisySketch {
	ns := &NoisySketch{
		Layout:   hs.layout,
		Raw:      make([][]int64, len(results)),
		Estimate: make([][]float64, len(results)),
	}
	for r, res := range results {
		ns.Raw[r] = append([]int64(nil), res.Release.Raw...)
		ns.Estimate[r] = append([]float64(nil), res.Release.Estimate...)
		ns.Stddev = res.Release.Stddev
		if n := int64(len(res.Transcript.Clients)); n > ns.Count {
			ns.Count = n
		}
	}
	return ns
}

// NoisySketch is the released count-min sketch: per-row verified noisy
// counts (Raw), their debiased estimates, the shared per-cell noise stddev,
// and the admitted-roster size the error bound is computed from (the
// maximum across rows — conservative when a row rejected a client the
// others kept).
type NoisySketch struct {
	Layout   sketch.Layout
	Raw      [][]int64
	Estimate [][]float64
	Stddev   float64
	Count    int64
}

// ErrorBound is the additive error ceiling every point query carries:
// dp.CountMinBound's e·N/w overcount term plus three noise stddevs. Each
// individual query holds with probability ≥ 1 - e^-d on the overcount term,
// for d rows.
func (ns *NoisySketch) ErrorBound() float64 {
	return dp.CountMinBound(ns.Layout.Width, ns.Count, ns.Stddev)
}

// PointQuery estimates item's true count: the minimum debiased estimate
// across the rows' cells, with the sketch's additive error bound.
func (ns *NoisySketch) PointQuery(item int) (estimate, bound float64, err error) {
	if item < 0 || item >= ns.Layout.Domain {
		return 0, 0, fmt.Errorf("%w: item %d outside domain [0, %d)", ErrBadConfig, item, ns.Layout.Domain)
	}
	estimate = math.Inf(1)
	for r := 0; r < ns.Layout.Rows; r++ {
		if v := ns.Estimate[r][ns.Layout.Cell(r, item)]; v < estimate {
			estimate = v
		}
	}
	return estimate, ns.ErrorBound(), nil
}

// ItemEstimate is one ranked heavy-hitter candidate.
type ItemEstimate struct {
	Item     int
	Estimate float64
	Bound    float64
}

// HeavyHitters enumerates the item domain and returns the k largest
// point-query estimates, descending (ties broken by ascending item).
// k <= 0 or k > Domain returns the whole ranked domain. Any item whose
// true count exceeds a reported estimate plus the bound would itself have
// ranked — so with high probability the top-k contains every true hitter
// above threshold + bound.
func (ns *NoisySketch) HeavyHitters(k int) []ItemEstimate {
	all := make([]ItemEstimate, ns.Layout.Domain)
	for item := range all {
		est, bound, _ := ns.PointQuery(item)
		all[item] = ItemEstimate{Item: item, Estimate: est, Bound: bound}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Estimate != all[j].Estimate {
			return all[i].Estimate > all[j].Estimate
		}
		return all[i].Item < all[j].Item
	})
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}
