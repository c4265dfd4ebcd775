package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparator needs.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// bounds maps each end-to-end metric to the share by which it may worsen.
func (bf *benchmarkFile) bounds() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func loadDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func compareFiles(a, b string, w io.Writer) error {
	bf, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		return err
	}
	da, err := loadDocument(a)
	if err != nil {
		return err
	}
	db, err := loadDocument(b)
	if err != nil {
		return err
	}
	compareDocs(da, db, bf.bounds(), w)
	return nil
}

// row is one workload x end-to-end metric comparison.
type row struct {
	Workload, Metric string
	NA, NB           int     // untraced runs of the workload on each side
	A, B             float64 // medians over them
	Delta            float64 // how much worse B is than A, as a share of A (negative: better)
	Spread           float64 // the wider of the two sides' quartile spreads
	Bound            float64
	Verdict          string
}

// minRuns is the fewest runs a side needs before its quartile spread says
// anything about noise; the one-document output has one run per workload.
const minRuns = 3

// judge applies the rule of the choosing-metrics guide: where a side has too
// few runs to show its noise, or its runs spread wider than the bound, the
// metric is unresolved, never unchanged; otherwise B is worse, better or
// unchanged by whether its median moved past the bound.
func judge(delta, spread, bound float64, runs int) string {
	switch {
	case runs < minRuns || spread > bound:
		return "unresolved"
	case delta > bound:
		return "worse"
	case delta < -bound:
		return "better"
	default:
		return "unchanged"
	}
}

// compareDocs prints one row per workload x end-to-end metric and a loud line
// for every same-seed digest that differs; it returns the rows.
func compareDocs(a, b *document, bounds map[string]float64, w io.Writer) []row {
	values := func(doc *document, workload, name string) []float64 {
		var xs []float64
		for _, r := range doc.Runs {
			if r.Workload == workload && r.Trace == 0 {
				if m, ok := r.Metrics[name]; ok {
					xs = append(xs, m.Value)
				}
			}
		}
		return xs
	}
	var rows []row
	fmt.Fprintf(w, "\n%-20s %-17s %5s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "runs", "A median", "B median", "B vs A", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			xa, xb := values(a, wl.name, def.name), values(b, wl.name, def.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := row{Workload: wl.name, Metric: def.name, NA: len(xa), NB: len(xb), A: median(xa), B: median(xb), Bound: bounds[def.name]}
			if r.A != 0 {
				r.Delta = (r.B - r.A) / math.Abs(r.A)
				if def.better == "higher" {
					r.Delta = -r.Delta
				}
			}
			r.Spread = math.Max(quartileSpread(xa), quartileSpread(xb))
			r.Verdict = judge(r.Delta, r.Spread, r.Bound, min(r.NA, r.NB))
			rows = append(rows, r)
			fmt.Fprintf(w, "%-20s %-17s %5s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				r.Workload, r.Metric, fmt.Sprintf("%d/%d", r.NA, r.NB), r.A, r.B, 100*r.Delta, 100*r.Spread, 100*r.Bound, r.Verdict)
		}
	}
	fmt.Fprintf(w, "(B vs A: positive is worse. runs: untraced runs behind each median, A/B; below %d a side's spread is unknown and the row unresolved)\n", minRuns)

	digests := make(map[string]string)
	key := func(r result) string { return fmt.Sprintf("%s seed %d", r.Workload, r.Seed) }
	for _, r := range a.Runs {
		digests[key(r)] = r.Digest
	}
	var differ []string
	for _, r := range b.Runs {
		if d, ok := digests[key(r)]; ok && d != r.Digest {
			differ = append(differ, key(r))
			delete(digests, key(r)) // one line per run pair
		}
	}
	sort.Strings(differ)
	for _, k := range differ {
		fmt.Fprintf(w, "!!! DIGEST MISMATCH: %s sealed a different transcript on the two sides — behaviour changed, not just speed\n", k)
	}
	return rows
}

// noise is what two sets of runs of the same code showed for one workload x
// metric: the wider of the sets' quartile spreads, and how far the second
// set's median lay from the first's (either way).
type noise struct {
	Spread float64 `json:"spread"`
	Gap    float64 `json:"gap"`
}

// noiseFile is what -repeat records: metric -> workload -> noise. The copy
// checked in as bench/noise.json is the measurement BENCHMARK.json's bounds
// were derived from; a test holds the two together.
type noiseFile struct {
	Env        environment                 `json:"env"`
	FirstSeed  int64                       `json:"first_seed"`
	RunsPerSet int                         `json:"runs_per_set"`
	Noise      map[string]map[string]noise `json:"noise"`
}

const (
	minBound     = 0.05 // below this a bound would gate on timer and scheduler jitter
	maxBound     = 0.25 // the contract's ceiling
	spreadFactor = 3    // the contract wants every spread under a third of its bound
)

// worst is the largest spread or gap any workload showed for a metric.
func worst(perWorkload map[string]noise) float64 {
	w := 0.0
	for _, n := range perWorkload {
		w = math.Max(w, math.Max(n.Spread, n.Gap))
	}
	return w
}

// deriveBound is the one rule every bound in BENCHMARK.json follows: a
// metric's bound is spreadFactor times its worst noise, rounded up to a whole
// percent, and held between minBound and maxBound. A metric at maxBound whose
// noise is above a third of it is a gate that cannot tell a regression from
// the machine below the ceiling; -compare reads such rows unresolved whenever
// the runs it is given spread wider than the bound. setup_s is the exception
// the contract makes: the largest bound, because the driver judges its median
// only.
func deriveBound(metric string, perWorkload map[string]noise) float64 {
	if metric == "setup_s" {
		return maxBound
	}
	bound := math.Ceil(spreadFactor*worst(perWorkload)*100-1e-9) / 100
	return math.Min(maxBound, math.Max(minBound, bound))
}

// repeat measures the code against itself the way the driver does: two sets
// of n untraced runs per workload, a different seed for each run of a set
// (the same seeds on both sides, so digests must agree), interleaved run by
// run so drift hits both alike. It writes the two documents and the noise
// they show, prints the comparison, and for each metric the bound
// deriveBound gives beside the one BENCHMARK.json declares.
func repeat(o options, stderr io.Writer) error {
	bf, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		return err
	}
	docs := [2]*document{newDocument(o), newDocument(o)}
	for i := 0; i < o.repeat; i++ {
		for _, wl := range workloads {
			for side := range docs {
				res, err := child(o, wl.name, o.seed+int64(i), 0, io.Discard)
				if err != nil {
					return err
				}
				docs[side].Runs = append(docs[side].Runs, *res)
				fmt.Fprintf(stderr, "set %c  %-20s seed %d  ok\n", 'A'+side, wl.name, res.Seed)
			}
		}
	}
	rows := compareDocs(docs[0], docs[1], bf.bounds(), stderr)
	nf := noiseFile{Env: docs[0].Env, FirstSeed: o.seed, RunsPerSet: o.repeat, Noise: make(map[string]map[string]noise)}
	for _, r := range rows {
		if nf.Noise[r.Metric] == nil {
			nf.Noise[r.Metric] = make(map[string]noise)
		}
		nf.Noise[r.Metric][r.Workload] = noise{Spread: r.Spread, Gap: math.Abs(r.Delta)}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	for name, v := range map[string]any{"repeat-a.json": docs[0], "repeat-b.json": docs[1], "noise.json": nf} {
		raw, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.outDir, name), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}

	fmt.Fprintf(stderr, "\n%-17s %10s %14s %10s\n", "metric", "noise", "derived bound", "declared")
	for _, def := range endToEnd {
		noise, bound, declared := worst(nf.Noise[def.name]), deriveBound(def.name, nf.Noise[def.name]), bf.bounds()[def.name]
		note := ""
		if math.Abs(declared-bound) > 1e-9 {
			note = "  <- differs"
		} else if spreadFactor*noise > bound && def.name != "setup_s" {
			note = "  (at the ceiling: noise is over a third of it)"
		}
		fmt.Fprintf(stderr, "%-17s %9.1f%% %13.0f%% %9.0f%%%s\n", def.name, 100*noise, 100*bound, 100*declared, note)
	}
	fmt.Fprintf(stderr, "noise: the largest quartile spread or A-B median gap on any workload; written to %s\n", filepath.Join(o.outDir, "noise.json"))
	return nil
}
