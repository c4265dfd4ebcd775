package main

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	kindNode    = "node"
	kindCluster = "cluster"
	kindSketch  = "sketch"
)

// workload is one set of inputs and the deployment they run against. Sizes
// are fixed; a run repeats whole epochs of this size until its time is up.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	kind string
	// coins is nb, the noise coins per bin: what Finalize's cost scales with.
	coins int
	// batch is the clients per request frame; 1 sends one "submit" frame each.
	batch int
	// clients is the submissions (sketch: contributions) admitted per epoch,
	// smoke the same at -scale smoke.
	clients, smoke int
	// boardEpochs, when above 1, makes this a read-side workload: set-up
	// builds one board of that many epochs (the last left open) and the timed
	// section only reads it. 0 is an epoch-lifecycle workload.
	boardEpochs int
}

// The five workloads. Names are fixed: later issues cite them.
var workloads = []*workload{
	{name: "node-batch64", kind: kindNode, coins: 256, batch: 64, clients: 1024, smoke: 128,
		why: "frames of 64 on one durable node: decode, folded proofs and multiexp do the work; store and transport almost none"},
	{name: "node-single", kind: kindNode, coins: 8, batch: 1, clients: 256, smoke: 32,
		why: "one submit frame per client on the same node: per-arrival lock, fsync, unfolded verify and framing, which batching hides"},
	{name: "cluster-2x2-batch64", kind: kindCluster, coins: 8, batch: 64, clients: 1024, smoke: 128,
		why: "router over 2 shards, each mirrored to a standby, all in memory: only here do the router, backend and mirror hops work"},
	{name: "replay-4k", kind: kindNode, coins: 8, batch: 64, clients: 2048, smoke: 128, boardEpochs: 2,
		why: "read side only: audit, resume and tail of one 4096-submission board, so a record-grammar change that slows readers shows"},
	{name: "sketch-hh", kind: kindSketch, coins: 8, batch: 8, clients: 64, smoke: 8,
		why: "heavy hitters over 3x16 one-hot rows with the budget ledger on: the only Bins>1, row-segmented, ledger-charging path"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one reported metric.
type metricDef struct{ name, unit, better string }

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them. Each is the median of one sample per epoch (per set-up for
// setup_s), except admit_p50_ms: the median of every frame round trip of the
// run, frame sent to verdict frame parsed. admit_p90_ms was measured as a
// tenth metric, spread wider than 10 % between identical runs on two
// workloads, and by the benchmark's own rule (deriveBound) now sits in the
// per-layer list, ungated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"admit_subs_per_s", "1/s", "higher"},
	{"admit_p50_ms", "ms", "lower"},
	{"finalize_ms", "ms", "lower"},
	{"audit_ms", "ms", "lower"},
	{"resume_ms", "ms", "lower"},
	{"tail_subs_per_s", "1/s", "higher"},
	{"certify_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer lists the traced pass's metrics, layer = product module. A metric
// whose layer a workload does not use reads 0 there.
var perLayer = []metricDef{
	{"transport.wire_us_per_frame", "us", "lower"},
	{"transport.frames_per_sub", "count", "lower"},
	{"transport.bytes_per_sub", "B", "lower"},
	{"transport.rtt_p99_ms", "ms", "lower"},
	{"admit_p90_ms", "ms", "lower"},
	{"vdp.decode_us_per_sub", "us", "lower"},
	{"vdp.decode_allocs_per_sub", "count", "lower"},
	{"vdp.encode_verdicts_us_per_frame", "us", "lower"},
	{"vdp.admit_us_per_sub", "us", "lower"},
	{"vdp.admit_self_us_per_sub", "us", "lower"},
	{"vdp.admit_allocs_per_sub", "count", "lower"},
	{"vdp.rejects_per_attempt", "share", "lower"},
	{"store.append_us_per_record", "us", "lower"},
	{"store.sync_us_per_call", "us", "lower"},
	{"store.syncs_per_sub", "count", "lower"},
	{"store.records_per_sub", "count", "lower"},
	{"store.bytes_per_sub", "B", "lower"},
	{"store.replay_us_per_record", "us", "lower"},
	{"store.mirror_us_per_call", "us", "lower"},
	{"store.mirror_calls_per_sub", "count", "lower"},
	{"sigma.fold_us_per_proof", "us", "lower"},
	{"sigma.check_us_per_proof", "us", "lower"},
	{"sigma.onehot_fold_us_per_proof", "us", "lower"},
	{"sigma.verify_single_us", "us", "lower"},
	{"group.multiexp_us_per_term", "us", "lower"},
	{"group.exp_us", "us", "lower"},
	{"pedersen.commit_us", "us", "lower"},
	{"pedersen.openings_us_per_sub", "us", "lower"},
	{"morra.run_us_per_coin", "us", "lower"},
	{"vdp.finalize_ms", "ms", "lower"},
	{"vdp.audit_us_per_sub", "us", "lower"},
	{"vdp.resume_replay_us_per_sub", "us", "lower"},
	{"vdp.resume_snapshot_ms", "ms", "lower"},
	{"vdp.tail_feed_us_per_sub", "us", "lower"},
	{"vdp.tail_seal_ms", "ms", "lower"},
	{"cluster.router_self_us_per_frame", "us", "lower"},
	{"cluster.node_handle_us_per_sub", "us", "lower"},
	{"cluster.subframes_per_frame", "count", "lower"},
	{"cluster.finalize_merge_ms", "ms", "lower"},
	{"cluster.audit_cluster_ms", "ms", "lower"},
	{"cluster.failover_ms", "ms", "lower"},
	{"sketch.admit_us_per_sub", "us", "lower"},
	{"sketch.finalize_ms", "ms", "lower"},
	{"sketch.query_us", "us", "lower"},
	{"sketch.ledger_records_per_sub", "count", "lower"},
	{"bench.trace_overhead_share", "share", "lower"},
	{"bench.unattributed_share", "share", "lower"},
}

// seedWord mixes (seed, label, i) into one 64-bit word with splitmix64, the
// generator the repository's other deterministic knobs use.
func seedWord(seed int64, label string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := uint64(seed)*0x9e3779b97f4a7c15 + h.Sum64() + uint64(i)*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seedStream is the deterministic byte stream for (seed, label, i): what the
// benchmark passes wherever the product takes an io.Reader for randomness.
func seedStream(seed int64, label string, i int) io.Reader {
	return rand.New(rand.NewSource(int64(seedWord(seed, label, i))))
}

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string    // where the traced pass writes trace-<workload>.json
	scratch string    // where durable boards live for the run
	log     io.Writer // the human-readable report
	// wrapAdmit swaps the admission surface behind every handler; see
	// deployment.wrapAdmit.
	wrapAdmit func(admitter) admitter
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the line the driver reads: exactly these four keys.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo identifies a run, for -compare and the one-document report.
type runInfo struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    int            `json:"trace"`
	Digest   string         `json:"digest"` // the gate epoch's transcript digest: fixed by the seed
	Samples  map[string]int `json:"samples"`
}

// result is what one run reports.
type result struct {
	verdict
	runInfo
}

const (
	setupReps     = 5       // set-ups per run; setup_s is their median
	tracedShare   = 0.65    // of a traced run's seconds spent in epochs, the rest in probes and drills
	failoverReps  = 5       // failover drills in the cluster workload's traced pass
	traceCapacity = 1 << 19 // spans; a traced pass records ~1e5
)

// runner holds one run's state.
type runner struct {
	cfg runConfig
	w   workload // cfg.w at the run's scale
	dep *deployment
	in  *inputs
	tr  *tracer // nil in an untraced pass

	samples map[string][]float64
	// attempted counts completed operations. One that fails ends the run, so
	// a printed result never counts a failure.
	attempted int
	// admission wall time and submissions in the traced and the untraced
	// epochs of a traced pass.
	tracedWall, tracedSubs, plainWall, plainSubs float64

	// replay workloads: the board set-up built, and its first epoch's digest.
	board  board
	digest []byte
	last   board // the most recent board, for the snapshot-boot probe
}

// roundTrips is the sample key of the run's pooled frame round trips, in ms:
// admit_p50_ms is their median, admit_p90_ms and transport.rtt_p99_ms their
// upper percentiles.
const roundTrips = "rtt_ms"

func (r *runner) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// run executes one workload once: set-up (setupReps times), the correctness gate,
// the timed section, the gate again, and the report.
func run(cfg runConfig) (*result, error) {
	r := &runner{cfg: cfg, w: *cfg.w, samples: make(map[string][]float64)}
	if cfg.smoke {
		r.w.clients = r.w.smoke
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if r.dep, err = newDeployment(&r.w, cfg.seed, scratch); err != nil {
		return nil, err
	}
	r.dep.wrapAdmit = cfg.wrapAdmit
	if cfg.trace {
		r.tr = newTracer(traceCapacity)
	}
	defer func() {
		for _, b := range []board{r.board, r.last} {
			if b != nil {
				b.Close()
			}
		}
	}()

	reps := setupReps
	if cfg.smoke {
		reps = 2
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if err := r.setUp(rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.add("setup_s", time.Since(t0).Seconds())
	}

	digest, err := r.gate()
	if err != nil {
		return nil, fmt.Errorf("correctness gate before the timed section: %w", err)
	}
	if err := r.timed(); err != nil {
		return nil, err
	}
	again, err := r.gate()
	if err != nil {
		return nil, fmt.Errorf("correctness gate after the timed section: %w", err)
	}
	if again != digest {
		return nil, fmt.Errorf("gate epoch sealed %s before the timed section and %s after it", digest, again)
	}
	res := &result{
		verdict: verdict{Correct: true, Attempted: r.attempted, Metrics: make(map[string]metric)},
		runInfo: runInfo{Workload: r.w.name, Seed: cfg.seed, Digest: digest, Samples: make(map[string]int)},
	}
	if cfg.trace {
		res.Trace = 1
		if err := r.reportLayers(res); err != nil {
			return nil, err
		}
	} else if err := r.reportEndToEnd(res); err != nil {
		return nil, err
	}
	r.printReport(res)
	return res, nil
}

// setUp generates and encodes the inputs and boots the system once. A
// read-side workload also builds its board here, which is where its admission
// and finalize figures come from.
func (r *runner) setUp(rep int) (err error) {
	if r.in, err = r.dep.generate(); err != nil {
		return err
	}
	if r.board != nil {
		r.board.Close()
		r.board = nil
	}
	b, err := r.dep.boot(r.tr)
	if err != nil {
		return err
	}
	if r.w.boardEpochs <= 1 {
		b.Close()
		return nil
	}
	r.board = b
	for e, reqs := range r.in.epochs {
		if err := r.admit(b, reqs, rep%2 == 0); err != nil {
			return err
		}
		if e == len(r.in.epochs)-1 {
			break
		}
		digest, err := r.finalize(b)
		if err != nil {
			return err
		}
		if e == 0 {
			r.digest = digest
		}
		if err := b.(interface{ NextEpoch() error }).NextEpoch(); err != nil {
			return err
		}
	}
	b.Shutdown()
	return nil
}

// timed runs whole epochs (or read rounds) until the run's seconds are used:
// it stops before an epoch that, going by the last one, would overrun.
func (r *runner) timed() error {
	budget := r.cfg.seconds
	least := 1
	if r.cfg.trace {
		budget *= tracedShare
		least = 2 // one traced epoch, one untraced beside it
	}
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		var err error
		if r.w.boardEpochs > 1 {
			err = r.round()
		} else {
			err = r.epoch(n%2 == 0)
		}
		if err != nil {
			return fmt.Errorf("epoch %d: %w", n, err)
		}
		if n+1 >= least && time.Since(start).Seconds()+time.Since(t0).Seconds() > budget {
			return nil
		}
	}
}

// epoch is one full lifecycle on a fresh board: admit, catch the audit tail
// up, finalize, certify, audit offline, crash and resume.
func (r *runner) epoch(traced bool) error {
	b, err := r.dep.boot(r.tr)
	if err != nil {
		return err
	}
	if r.last != nil {
		r.last.Close()
	}
	r.last = b
	if err := r.admit(b, r.in.epochs[0], traced); err != nil {
		return err
	}
	if err := r.tailCatchUp(b, r.w.clients); err != nil {
		return err
	}
	digest, err := r.finalize(b)
	if err != nil {
		return err
	}
	if err := r.certify(b, digest); err != nil {
		return err
	}
	if err := r.audit(b); err != nil {
		return err
	}
	return r.resume(b)
}

// round is one read of the board set-up built: resume it, audit its sealed
// epoch, and run a fresh tail from the first record through the seal to the
// end of the open epoch.
func (r *runner) round() error {
	r.last = r.board
	if err := r.resume(r.board); err != nil {
		return err
	}
	if err := r.audit(r.board); err != nil {
		return err
	}
	if err := r.tailCatchUp(r.board, r.w.clients*r.w.boardEpochs); err != nil {
		return err
	}
	return r.certify(r.board, r.digest)
}

// admit sends reqs over the run's connections, closed loop: each connection
// sends its next frame when the verdict frame of the last one is parsed. In a
// traced pass spans are recorded only when traced is set; the untraced epochs
// beside them are what the tracing overhead is measured against.
func (r *runner) admit(b board, reqs []request, traced bool) error {
	conns := 2
	if r.tr != nil {
		conns = 1 // one request in flight: span parentage is unambiguous, counts repeat
		r.tr.on.Store(traced)
		defer r.tr.on.Store(false)
	}
	gws := make([]*gateway, conns)
	for i := range gws {
		gw, err := dialGateway(b.Addr(), r.tr)
		if err != nil {
			return err
		}
		defer gw.close()
		gws[i] = gw
	}
	type tally struct {
		rtts     []float64
		accepted int
		err      error
	}
	tallies := make([]tally, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range gws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &tallies[i]
			for j := i; j < len(reqs); j += conns {
				t0 := time.Now()
				accepted, refused, err := gws[i].roundTrip(reqs[j])
				if err == nil && accepted != reqs[j].subs {
					err = fmt.Errorf("honest frame: %d of %d accepted, refused: %q", accepted, reqs[j].subs, refused)
				}
				if err != nil {
					t.err = err
					return
				}
				t.accepted += accepted
				t.rtts = append(t.rtts, ms(time.Since(t0)))
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	accepted := 0
	var rtts []float64
	for _, t := range tallies {
		if t.err != nil {
			return t.err
		}
		accepted += t.accepted
		rtts = append(rtts, t.rtts...)
	}
	r.attempted += accepted
	// One throughput sample per epoch; the run reports their median, which a
	// few slow epochs (a cold start, a busy disk) cannot move. Round trips are
	// pooled over the run: an epoch of sketch-hh has 8, too few for a median.
	r.add("admit_subs_per_s", float64(accepted)/wall)
	r.samples[roundTrips] = append(r.samples[roundTrips], rtts...)
	if r.tr != nil {
		if traced {
			r.tracedWall, r.tracedSubs = r.tracedWall+wall, r.tracedSubs+float64(accepted)
		} else {
			r.plainWall, r.plainSubs = r.plainWall+wall, r.plainSubs+float64(accepted)
		}
	}
	return nil
}

func (r *runner) tailCatchUp(b board, subs int) error {
	d, err := b.TailCatchUp()
	if err != nil {
		return fmt.Errorf("tail catch-up: %w", err)
	}
	r.add("tail_subs_per_s", float64(subs)/d.Seconds())
	return nil
}

func (r *runner) finalize(b board) ([]byte, error) {
	t0 := time.Now()
	digest, err := b.Finalize()
	if err != nil {
		return nil, fmt.Errorf("finalize: %w", err)
	}
	r.add("finalize_ms", ms(time.Since(t0)))
	r.attempted++
	return digest, nil
}

func (r *runner) certify(b board, digest []byte) error {
	d, err := b.TailCertify(digest)
	if err != nil {
		return fmt.Errorf("tail certify: %w", err)
	}
	r.add("certify_ms", ms(d))
	r.attempted++
	return nil
}

func (r *runner) audit(b board) error {
	t0 := time.Now()
	if err := b.Audit(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	r.add("audit_ms", ms(time.Since(t0)))
	r.attempted++
	return nil
}

func (r *runner) resume(b board) error {
	b.Shutdown()
	t0 := time.Now()
	if err := b.Resume(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	r.add("resume_ms", ms(time.Since(t0)))
	r.attempted++
	return nil
}

// gate is the correctness gate: a benchmark that skipped verification, or
// lost track of the roster, cannot pass it. On a fresh board, over one
// connection so the order is fixed: every honest submission is accepted; a
// submission whose proof was altered is refused with a verdict naming its
// client; a second submission under an admitted ID is refused as a duplicate;
// the epoch seals, the audit tail certifies the seal, and the offline audit
// passes; then the workload's cross-check (deployment.crossCheck). It returns
// the sealed digest, which depends only on the seed.
func (r *runner) gate() (string, error) {
	b, err := r.dep.boot(nil)
	if err != nil {
		return "", err
	}
	defer b.Close()
	send := func(rq request) (int, []string, error) {
		// A refused "submit" frame costs the client its connection, so each
		// gate frame gets its own.
		gw, err := dialGateway(b.Addr(), nil)
		if err != nil {
			return 0, nil, err
		}
		defer gw.close()
		return gw.roundTrip(rq)
	}
	g := &r.in.gate
	for _, rq := range g.honest {
		accepted, refused, err := send(rq)
		if err != nil {
			return "", err
		}
		if accepted != rq.subs {
			return "", fmt.Errorf("honest submissions refused: %q", refused)
		}
	}
	accepted, refused, err := send(g.tampered)
	if err != nil {
		return "", err
	}
	if accepted != 0 || len(refused) != 1 {
		return "", fmt.Errorf("client %d's submission carries an altered proof and was admitted", g.tamperID)
	}
	if !strings.Contains(refused[0], "client "+strconv.Itoa(g.tamperID)) {
		return "", fmt.Errorf("altered proof refused without naming client %d: %q", g.tamperID, refused[0])
	}
	accepted, refused, err = send(g.duplicate)
	if err != nil {
		return "", err
	}
	if accepted != 0 || len(refused) != 1 || !strings.Contains(refused[0], "duplicate") {
		return "", fmt.Errorf("second submission under ID %d was not refused as a duplicate (accepted %d, reasons %q)", g.dupID, accepted, refused)
	}
	if _, err := b.TailCatchUp(); err != nil {
		return "", fmt.Errorf("tail catch-up: %w", err)
	}
	digest, err := b.Finalize()
	if err != nil {
		return "", fmt.Errorf("finalize: %w", err)
	}
	if _, err := b.TailCertify(digest); err != nil {
		return "", err
	}
	if err := b.Audit(); err != nil {
		return "", fmt.Errorf("audit: %w", err)
	}
	if err := r.dep.crossCheck(b, r.in, digest); err != nil {
		return "", err
	}
	return hex.EncodeToString(digest), nil
}

func (r *runner) reportEndToEnd(res *result) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.add("peak_rss_mb", rss)
	for _, def := range endToEnd {
		xs := r.samples[def.name]
		if def.name == "admit_p50_ms" {
			xs = r.samples[roundTrips]
		}
		if len(xs) == 0 {
			// A metric without a sample would read 0, which the contract forbids.
			return fmt.Errorf("no sample of %s was taken", def.name)
		}
		res.Metrics[def.name] = metric{median(xs), def.unit}
		res.Samples[def.name] = len(xs)
	}
	return nil
}

// reportLayers folds the traced pass into the per-layer metrics: span totals
// and self times per submission, work counts per submission, the lifecycle
// steps, the replay probes, and (cluster) the failover drills.
func (r *runner) reportLayers(res *result) error {
	v := make(map[string]float64)
	spans := r.tr.recorded()
	layers := selfTimes(spans)
	c := &r.tr.c
	subs, frames := float64(c.subs.Load()), float64(c.frames.Load())
	if subs == 0 || frames == 0 {
		return fmt.Errorf("the traced pass recorded no admission")
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	layer := func(name string) layerTime {
		if lt := layers[name]; lt != nil {
			return *lt
		}
		return layerTime{}
	}
	total := func(name string) float64 { return us(layer(name).Total) }
	self := func(name string) float64 { return us(layer(name).Self) }
	count := func(name string) float64 { return float64(layer(name).Count) }
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	cluster, sketch := r.w.kind == kindCluster, r.w.kind == kindSketch
	only := func(cond bool, x float64) float64 {
		if cond {
			return x
		}
		return 0
	}

	v["transport.wire_us_per_frame"] = per(self(spanRTT), frames)
	v["transport.frames_per_sub"] = frames / subs
	v["transport.bytes_per_sub"] = float64(c.wireBytes.Load()) / subs
	v["transport.rtt_p99_ms"] = percentile(r.samples[roundTrips], 99)
	v["admit_p90_ms"] = percentile(r.samples[roundTrips], 90)
	v["vdp.decode_us_per_sub"] = total(spanDecode) / subs
	v["vdp.encode_verdicts_us_per_frame"] = per(total(spanEncode), count(spanEncode))
	v["vdp.admit_us_per_sub"] = total(spanAdmit) / subs
	v["vdp.admit_self_us_per_sub"] = self(spanAdmit) / subs
	v["vdp.rejects_per_attempt"] = per(float64(c.rejects.Load()), float64(c.attempts.Load()))
	v["store.append_us_per_record"] = per(total(spanAppend), count(spanAppend))
	v["store.sync_us_per_call"] = per(total(spanSync)+total(spanAppendSync), count(spanSync)+count(spanAppendSync))
	v["store.syncs_per_sub"] = float64(c.syncs.Load()) / subs
	v["store.records_per_sub"] = float64(c.records.Load()) / subs
	v["store.bytes_per_sub"] = float64(c.recordBytes.Load()) / subs
	v["store.mirror_us_per_call"] = per(total(spanMirror), count(spanMirror))
	v["store.mirror_calls_per_sub"] = float64(c.mirrors.Load()) / subs
	v["cluster.router_self_us_per_frame"] = per(self(spanRouter), count(spanRouter))
	v["cluster.node_handle_us_per_sub"] = only(cluster, total(spanHandle)/subs)
	v["cluster.subframes_per_frame"] = only(cluster, float64(c.nodeFrames.Load())/frames)
	v["sketch.admit_us_per_sub"] = only(sketch, total(spanAdmit)/subs)
	v["sketch.ledger_records_per_sub"] = float64(c.ledgerRecs.Load()) / subs

	board := float64(r.w.clients * max(1, r.w.boardEpochs)) // submissions a reader walks
	sealed := float64(r.w.clients)                          // submissions in the audited epoch
	fin, aud := median(r.samples["finalize_ms"]), median(r.samples["audit_ms"])
	v["vdp.finalize_ms"] = fin
	v["vdp.audit_us_per_sub"] = aud * 1e3 / sealed
	v["vdp.resume_replay_us_per_sub"] = median(r.samples["resume_ms"]) * 1e3 / board
	v["vdp.tail_feed_us_per_sub"] = per(1e6, median(r.samples["tail_subs_per_s"]))
	v["vdp.tail_seal_ms"] = median(r.samples["certify_ms"])
	v["cluster.finalize_merge_ms"] = only(cluster, fin)
	v["cluster.audit_cluster_ms"] = only(cluster, aud)
	v["sketch.finalize_ms"] = only(sketch, fin)

	b := makeBudget(layers, c.subs.Load())
	v["bench.unattributed_share"] = b.Unattributed
	if r.plainWall > 0 && r.tracedWall > 0 {
		v["bench.trace_overhead_share"] = 1 - (r.tracedSubs/r.tracedWall)/(r.plainSubs/r.plainWall)
	}

	if err := r.dep.layerExtras(r, v); err != nil {
		return err
	}
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{v[def.name], def.unit}
	}
	res.Samples[roundTrips] = len(r.samples[roundTrips])
	res.Samples["spans"] = len(spans)
	res.Samples["epochs"] = len(r.samples["audit_ms"])

	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.outDir, "trace-"+r.w.name+".json")
	if err := writeTrace(path, r.w.name, r.cfg.seed, r.tr); err != nil {
		return err
	}
	b.print(r.cfg.log, r.w.name)
	fmt.Fprintf(r.cfg.log, "  %d spans written to %s (%d dropped)\n", len(spans), path, r.tr.dropped.Load())
	return nil
}

// printReport writes the human-readable table.
func (r *runner) printReport(res *result) {
	w := r.cfg.log
	pass := "untraced pass, 2 connections"
	if r.cfg.trace {
		pass = "traced pass, 1 connection"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s  (%d clients/epoch, frames of %d, nb=%d)\n", r.w.name, r.cfg.seed, pass, r.w.clients, r.w.batch, r.w.coins)
	fmt.Fprintf(w, "  environment: nproc=%d GOMAXPROCS=%d %s, loopback TCP, servers in-process, fsync on for durable boards\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; gate epoch digest %s\n", res.Attempted, res.Failed, res.Digest[:16])
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if n, ok := res.Samples[name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s (n=%d)\n", name, m.Value, m.Unit, n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	if n := len(r.samples[roundTrips]); n > 0 {
		if p := supportedPercentile(n); p > 0 {
			fmt.Fprintf(w, "  round trips: n=%d, highest percentile with 10 samples beyond it p%g = %.4f ms\n", n, p, percentile(r.samples[roundTrips], p))
		} else {
			fmt.Fprintf(w, "  round trips: n=%d, too few for any percentile to have 10 samples beyond it\n", n)
		}
	}
}
