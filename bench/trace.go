package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span names, one per wrapper boundary. The part before the dot is the
// product module the time is charged to; "bench" is the benchmark's own glue.
const (
	spanRTT        = "transport.rtt"     // client: frame sent -> verdict frame parsed (root)
	spanRouter     = "cluster.router"    // router handler: peek, split, fan out, repack
	spanHandle     = "bench.handler"     // the bench-owned submit / submit-batch dispatch on a node
	spanDecode     = "vdp.decode"        // DecodeSubmitPayload / DecodeSubmissionBatch
	spanAdmit      = "vdp.admit"         // Submit / SubmitBatch
	spanEncode     = "vdp.encode"        // EncodeBatchVerdicts
	spanAppend     = "store.append"      // AppendNoSync: ordered write, no flush
	spanAppendSync = "store.append_sync" // Append: write + flush in one call
	spanSync       = "store.sync"        // Sync: the group-commit flush
	spanMirror     = "store.mirror"      // MirrorFunc: ship to the standby, wait for its ack
)

// span is one timed interval at a layer boundary. Times are nanoseconds since
// the tracer was created; ID is the span's 1-based slot in the buffer, so a
// parent reference is also an index.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer records spans into a buffer allocated up front, so recording costs
// two clock reads and one slot write. It is switched on only around the
// admission section of a traced epoch. The traced pass keeps exactly one
// request in flight, which is what lets layers that share no call stack (the
// router and the nodes behind it, a session and its store) find their parent
// through req and top instead of through plumbing inside the product.
//
// A nil *tracer is valid and records nothing.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int32
	on      atomic.Bool
	req     atomic.Int32 // request in flight (0 between requests)
	top     atomic.Int32 // innermost span that crosses a socket: the rtt, then the router's
	dropped atomic.Int32
	c       counters
}

// counters are the work counts taken at the same boundaries as the spans, so
// that every per-submission ratio is measured where the work happens. They
// advance only while the tracer is on.
type counters struct {
	frames, subs, wireBytes    atomic.Int64 // client side
	nodeFrames                 atomic.Int64 // frames reaching a node's dispatch
	attempts, rejects          atomic.Int64 // verdicts seen by the client
	records, recordBytes       atomic.Int64 // store appends
	syncs, mirrors, ledgerRecs atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span under parent and returns its id, or 0 when tracing is
// off or the buffer is full (end(0) is a no-op, so callers never branch).
func (t *tracer) begin(name string, parent int32) int32 {
	if !t.active() {
		return 0
	}
	id := t.n.Add(1)
	if int(id) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[id-1] = span{Name: name, Start: int64(time.Since(t.t0)), ID: id, Parent: parent, Req: t.req.Load()}
	return id
}

func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// beginRequest opens the root span of one client round trip.
func (t *tracer) beginRequest() int32 {
	if !t.active() {
		return 0
	}
	t.req.Add(1)
	id := t.begin(spanRTT, 0)
	t.top.Store(id)
	return id
}

func (t *tracer) endRequest(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.top.Store(0)
}

// parentTop is the span a server-side handler hangs under.
func (t *tracer) parentTop() int32 {
	if t == nil {
		return 0
	}
	return t.top.Load()
}

// recorded returns the completed spans.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.End >= s.Start && s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is the time charged to one span name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of (duration - union of the children's intervals)
}

// selfTimes folds spans into per-name totals. A span's self time is its
// duration minus the part of its interval its children cover (overlapping
// children are merged first), so along any one call chain the self times add
// up to the root. Children that run in parallel with each other (two shards
// of one routed frame, the fsync beside the verification) each keep their own
// self time, so the column sums to more than the root by exactly that overlap.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlapping stretches once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	at := lo
	for _, c := range iv {
		a, b := c[0], c[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// budget is the per-request latency budget of one traced admission workload.
type budget struct {
	Rows         []budgetRow
	RTTPerSub    float64 // µs of client round trip per submission
	Unattributed float64 // share of round trip spent in the bench's own dispatch glue
	Overlap      float64 // share by which parallel layers make the column exceed the round trip
}

type budgetRow struct {
	Name       string
	Count      int
	SelfPerSub float64 // µs
	Share      float64 // of the summed client round trip
}

// makeBudget turns folded self times into the budget table: every layer's
// self time per submission and its share of the client round trip.
func makeBudget(layers map[string]*layerTime, subs int64) budget {
	var b budget
	rtt := layers[spanRTT]
	if rtt == nil || rtt.Total == 0 || subs == 0 {
		return b
	}
	var sum time.Duration
	for _, lt := range layers {
		sum += lt.Self
		b.Rows = append(b.Rows, budgetRow{
			Name:       lt.Name,
			Count:      lt.Count,
			SelfPerSub: float64(lt.Self.Microseconds()) / float64(subs),
			Share:      float64(lt.Self) / float64(rtt.Total),
		})
	}
	sort.Slice(b.Rows, func(i, j int) bool { return b.Rows[i].SelfPerSub > b.Rows[j].SelfPerSub })
	b.RTTPerSub = float64(rtt.Total.Microseconds()) / float64(subs)
	if h := layers[spanHandle]; h != nil {
		b.Unattributed = float64(h.Self) / float64(rtt.Total)
	}
	b.Overlap = float64(sum-rtt.Total) / float64(rtt.Total)
	return b
}

func (b budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "\nlatency budget, %s (traced pass, 1 connection): %.1f µs of round trip per submission\n", workload, b.RTTPerSub)
	fmt.Fprintf(w, "  %-20s %9s %14s %8s\n", "layer (self time)", "spans", "µs/submission", "of RTT")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-20s %9d %14.2f %7.1f%%\n", r.Name, r.Count, r.SelfPerSub, 100*r.Share)
	}
	fmt.Fprintf(w, "  unattributed (bench.handler glue) %.2f%% of RTT; parallel overlap +%.1f%%\n", 100*b.Unattributed, 100*b.Overlap)
}

// traceFile is the on-disk form of a traced pass.
type traceFile struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int32  `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the recorded spans to path.
func writeTrace(path, workload string, seed int64, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Schema: "vdp-bench-trace/1", Workload: workload, Seed: seed, Dropped: t.dropped.Load(), Spans: t.recorded()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
