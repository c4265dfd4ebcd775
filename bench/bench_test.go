package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	// root 0..100 has three children: a 10..40, b 30..60 (overlaps a), c 70..80.
	// a has a nested child d 15..25. Parallel children are merged before they
	// are subtracted, and a grandchild is subtracted from its parent only.
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 1, Start: 70, End: 80},
		{Name: "d", ID: 5, Parent: 2, Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 40, "a": 20, "b": 30, "c": 10, "d": 10}
	for name, self := range want {
		if got[name].Self != self {
			t.Errorf("self(%s) = %d, want %d", name, got[name].Self, self)
		}
	}
	// Overlapping children count once: a and b together cover 10..60.
	if got := covered([][2]int64{{30, 60}, {10, 40}, {70, 80}}, 0, 100); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
	// A child that overruns its parent is clipped to the parent's interval.
	clipped := selfTimes([]span{{Name: "p", ID: 1, Start: 10, End: 20}, {Name: "k", ID: 2, Parent: 1, Start: 5, End: 15}})
	if clipped["p"].Self != 5 {
		t.Errorf("self of a parent with an overrunning child = %d, want 5", clipped["p"].Self)
	}
}

func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 0)) // a nil tracer records nothing and does not panic
	tr := newTracer(2)
	if id := tr.begin("x", 0); id != 0 {
		t.Fatalf("span recorded while off")
	}
	tr.on.Store(true)
	root := tr.beginRequest()
	kid := tr.begin("kid", tr.parentTop())
	tr.end(kid)
	tr.endRequest(root)
	if over := tr.begin("full", 0); over != 0 || tr.dropped.Load() != 1 {
		t.Fatalf("span beyond capacity: id %d, dropped %d", over, tr.dropped.Load())
	}
	got := tr.recorded()
	if len(got) != 2 || got[1].Parent != root || got[0].Req != 1 {
		t.Fatalf("recorded %+v", got)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if p50, p90, p99 := percentile(xs, 50), percentile(xs, 90), percentile(xs, 99); p50 != 50 || p90 != 90 || p99 != 99 {
		t.Errorf("nearest-rank percentiles = %g %g %g", p50, p90, p99)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	if got, want := quartileSpread(xs), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the cut points
	// of a tiny sample extrapolate, as Python's do.
	if q1, _, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %g %g", q1, q3)
	}
}

func smoke(t *testing.T, name string) workload {
	t.Helper()
	w := *workloadByName(name)
	w.clients = w.smoke
	return w
}

func TestSameSeedSameFrames(t *testing.T) {
	for _, name := range []string{"node-single", "cluster-2x2-batch64"} {
		w := smoke(t, name)
		gen := func(seed int64) *inputs {
			d, err := newDeployment(&w, seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			in, err := d.generate()
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a, b, c := gen(7), gen(7), gen(8)
		if len(a.epochs[0]) == 0 || len(a.epochs[0]) != len(b.epochs[0]) {
			t.Fatalf("%s: %d and %d frames", name, len(a.epochs[0]), len(b.epochs[0]))
		}
		for i := range a.epochs[0] {
			if !bytes.Equal(a.epochs[0][i].payload, b.epochs[0][i].payload) {
				t.Fatalf("%s: frame %d differs between two generations from seed 7", name, i)
			}
		}
		if !bytes.Equal(a.gate.tampered.payload, b.gate.tampered.payload) {
			t.Errorf("%s: the gate's tampered frame differs between two generations from seed 7", name)
		}
		if bytes.Equal(a.epochs[0][0].payload, c.epochs[0][0].payload) {
			t.Errorf("%s: seeds 7 and 8 produced the same first frame", name)
		}
	}
}

// declaration loads BENCHMARK.json from the repository root.
func declaration(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bf := declaration(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if strings.Join(bf.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", bf.Command)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, program has %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, def := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
			t.Errorf("end-to-end %d: declared %+v, program has %+v", i, m, def)
		}
		if m.Bound < minBound || m.Bound > maxBound {
			t.Errorf("%s: bound %g outside [%g, %g]", m.Name, m.Bound, minBound, maxBound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s [s, lower] is not declared")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		if m := bf.PerLayer[i]; m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
			t.Errorf("per-layer %d: declared %+v, program has %+v", i, m, def)
		}
	}
}

// TestSmokeRunReportsExactlyTheDeclaredMetrics runs all five workloads at
// -scale smoke, both passes, through the same entry point the driver uses, and
// checks the last stdout line carries exactly the four contract keys and
// exactly the metrics BENCHMARK.json declares — none missing, none extra, and
// no end-to-end metric reading 0.
func TestSmokeRunReportsExactlyTheDeclaredMetrics(t *testing.T) {
	bf := declaration(t)
	dir := t.TempDir()
	start := time.Now()
	for _, w := range bf.Workloads {
		for trace := 0; trace <= 1; trace++ {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.2", "--trace", []string{"0", "1"}[trace],
				"-scale", "smoke", "-out", filepath.Join(dir, "out"), "-scratch", filepath.Join(dir, "tmp")}
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatal(err)
			}
			if len(raw) != 4 {
				t.Errorf("%s: last line has keys %v, want exactly correct, attempted, failed, metrics", w.Name, raw)
			}
			var v verdict
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
				t.Fatal(err)
			}
			if !v.Correct || v.Attempted < 1 || v.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, v.Correct, v.Attempted, v.Failed)
			}
			want := make(map[string]string)
			if trace == 0 {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := v.Metrics[name]
				if !ok {
					t.Errorf("%s trace %d: %s is missing", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace %d: %s has unit %q, declared %q", w.Name, trace, name, m.Unit, unit)
				} else if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s reads %g", w.Name, name, m.Value)
				}
			}
			for name := range v.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %d: %s is reported but not declared", w.Name, trace, name)
				}
			}
			if trace == 1 {
				checkLayerPredictions(t, w.Name, v.Metrics)
				if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
	t.Logf("all five workloads, both passes, in %.1fs", time.Since(start).Seconds())
}

// checkLayerPredictions pins the counts that repeat exactly: a layer a
// workload bypasses must read zero there, and the flush counts per
// submission are what the admission paths are known to issue.
func checkLayerPredictions(t *testing.T, name string, m map[string]metric) {
	t.Helper()
	cluster, sketch := name == "cluster-2x2-batch64", name == "sketch-hh"
	for metric, applies := range map[string]bool{
		"store.mirror_calls_per_sub":       cluster,
		"cluster.router_self_us_per_frame": cluster,
		"cluster.subframes_per_frame":      cluster,
		"cluster.failover_ms":              cluster,
		"sketch.ledger_records_per_sub":    sketch,
		"sigma.onehot_fold_us_per_proof":   sketch,
	} {
		if got := m[metric].Value; (got != 0) != applies {
			t.Errorf("%s: %s = %g, want it non-zero only where the layer does work (here: %v)", name, metric, got, applies)
		}
	}
	switch name {
	case "node-single": // one flush for the submission record, one for the verdict record
		if got := m["store.syncs_per_sub"].Value; got != 2 {
			t.Errorf("node-single: store.syncs_per_sub = %g, want 2", got)
		}
	case "node-batch64", "replay-4k": // the same two flushes, shared by a frame
		if got := m["store.syncs_per_sub"].Value; got != 2.0/64 {
			t.Errorf("%s: store.syncs_per_sub = %g, want 2/64", name, got)
		}
	case "sketch-hh":
		if got := m["sketch.ledger_records_per_sub"].Value; got != 1 {
			t.Errorf("sketch-hh: sketch.ledger_records_per_sub = %g, want 1", got)
		}
	}
	if got := m["vdp.rejects_per_attempt"].Value; got != 0 {
		t.Errorf("%s: vdp.rejects_per_attempt = %g on an all-honest workload", name, got)
	}
}

// TestDeclaredBoundsFollowTheRecordedNoise holds BENCHMARK.json to the rule:
// every bound is what deriveBound makes of the noise -repeat recorded in
// noise.json, and every gated metric was measured on every workload.
func TestDeclaredBoundsFollowTheRecordedNoise(t *testing.T) {
	raw, err := os.ReadFile("noise.json")
	if err != nil {
		t.Fatal(err)
	}
	var nf noiseFile
	if err := json.Unmarshal(raw, &nf); err != nil {
		t.Fatal(err)
	}
	if nf.RunsPerSet < 10 {
		t.Errorf("noise.json records sets of %d runs; the driver judges sets of 10", nf.RunsPerSet)
	}
	declared := declaration(t).bounds()
	if len(nf.Noise) != len(declared) {
		t.Errorf("noise.json measured %d metrics, BENCHMARK.json gates %d", len(nf.Noise), len(declared))
	}
	for metric, bound := range declared {
		if len(nf.Noise[metric]) != len(workloads) {
			t.Errorf("%s is gated but noise.json has it on %d of %d workloads", metric, len(nf.Noise[metric]), len(workloads))
		}
		if want := deriveBound(metric, nf.Noise[metric]); math.Abs(bound-want) > 1e-9 {
			t.Errorf("%s: declared bound %g, the recorded noise derives %g", metric, bound, want)
		}
		for wl, n := range nf.Noise[metric] {
			if n.Gap > bound {
				t.Errorf("%s on %s: two sets of the same code lay %.1f%% apart, beyond the declared %.0f%%", metric, wl, 100*n.Gap, 100*bound)
			}
		}
	}
}

func TestDeriveBound(t *testing.T) {
	for _, c := range []struct {
		metric      string
		spread, gap float64
		want        float64
	}{
		{"audit_ms", 0.004, 0.001, 0.05},  // quieter than the floor
		{"audit_ms", 0.05, 0.01, 0.15},    // three times the spread, not a rounding step more
		{"audit_ms", 0.041, 0.01, 0.13},   // rounded up to a whole percent
		{"audit_ms", 0.02, 0.06, 0.18},    // the gap between the sets counts like a spread
		{"audit_ms", 0.35, 0.01, 0.25},    // a noisy machine: the ceiling, and no further
		{"setup_s", 0.01, 0.01, maxBound}, // the contract's exception
	} {
		got := deriveBound(c.metric, map[string]noise{"quiet": {}, "noisy": {c.spread, c.gap}})
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("deriveBound(%s, spread %g, gap %g) = %g, want %g", c.metric, c.spread, c.gap, got, c.want)
		}
	}
}

// TestGateBitesWhenTheHandlerSkipsTheSession swaps the admission surface of
// every handler for one that accepts without calling the session, and runs
// each kind of deployment through the command's entry point: the run must
// exit non-zero, name the altered proof, and print not one byte of result.
func TestGateBitesWhenTheHandlerSkipsTheSession(t *testing.T) {
	skip := options{wrapAdmit: skipSession}
	for _, name := range []string{"node-single", "node-batch64", "cluster-2x2-batch64", "sketch-hh"} {
		dir := t.TempDir()
		args := []string{"--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", "0",
			"-scale", "smoke", "-out", dir, "-scratch", dir}
		var stdout, stderr bytes.Buffer
		code := mainWith(skip, args, &stdout, &stderr)
		if code == 0 || stdout.Len() != 0 {
			t.Errorf("%s: a handler that admits without the session: exit %d, stdout %q", name, code, stdout.String())
		}
		if !strings.Contains(stderr.String(), "altered proof") {
			t.Errorf("%s: the failure does not name the altered proof:\n%s", name, stderr.String())
		}
	}
}

func TestCompareVerdictsAndDigestAlarm(t *testing.T) {
	for _, c := range []struct {
		delta, spread, bound float64
		runs                 int
		want                 string
	}{
		{0.02, 0.01, 0.05, 5, "unchanged"},
		{0.08, 0.01, 0.05, 5, "worse"},
		{-0.08, 0.01, 0.05, 5, "better"},
		{0.08, 0.06, 0.05, 5, "unresolved"}, // noise wider than the bound: never "worse", never "unchanged"
		{0.00, 0.06, 0.05, 5, "unresolved"},
		{0.08, 0.00, 0.05, 1, "unresolved"}, // one run a side shows no noise at all, so it settles nothing
	} {
		if got := judge(c.delta, c.spread, c.bound, c.runs); got != c.want {
			t.Errorf("judge(%g, %g, %g, %d) = %s, want %s", c.delta, c.spread, c.bound, c.runs, got, c.want)
		}
	}
	doc := func(rate float64, digest string) *document {
		d := &document{}
		for seed := int64(1); seed <= 4; seed++ {
			d.Runs = append(d.Runs, result{
				verdict: verdict{Correct: true, Metrics: map[string]metric{
					"admit_subs_per_s": {rate + float64(seed), "1/s"}, "admit_p50_ms": {10, "ms"}}},
				runInfo: runInfo{Workload: "node-batch64", Seed: seed, Digest: digest},
			})
		}
		return d
	}
	var out bytes.Buffer
	rows := compareDocs(doc(1000, "aa"), doc(800, "bb"), map[string]float64{"admit_subs_per_s": 0.05, "admit_p50_ms": 0.05}, &out)
	if len(rows) != 2 || rows[0].Metric != "admit_subs_per_s" || rows[0].Verdict != "worse" || rows[1].Verdict != "unchanged" {
		t.Errorf("rows = %+v", rows)
	}
	if rows[0].Delta < 0.19 || rows[0].Delta > 0.21 {
		t.Errorf("a throughput that fell by a fifth reads %+.3f worse", rows[0].Delta)
	}
	if n := strings.Count(out.String(), "DIGEST MISMATCH"); n != 4 {
		t.Errorf("%d digest alarms for 4 same-seed pairs that sealed different transcripts:\n%s", n, out.String())
	}

	// The default one-document output holds one untraced and one traced run
	// per workload: a single sample a side, which can settle nothing.
	single := func(rate float64) *document {
		return &document{Runs: []result{
			{verdict: verdict{Metrics: map[string]metric{"admit_subs_per_s": {rate, "1/s"}}}, runInfo: runInfo{Workload: "node-batch64", Seed: 1}},
			{verdict: verdict{Metrics: map[string]metric{"admit_p90_ms": {1, "ms"}}}, runInfo: runInfo{Workload: "node-batch64", Seed: 1, Trace: 1}},
		}}
	}
	rows = compareDocs(single(1000), single(500), map[string]float64{"admit_subs_per_s": 0.05}, io.Discard)
	if len(rows) != 1 || rows[0].NA != 1 || rows[0].NB != 1 || rows[0].Verdict != "unresolved" {
		t.Errorf("one run a side: rows = %+v, want one unresolved row with 1/1 runs", rows)
	}
}
