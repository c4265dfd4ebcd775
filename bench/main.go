// Command bench is the repository's benchmark: five workloads that drive the
// system the way its users do — gateways pushing submit / submit-batch frames
// over loopback TCP, a curator finalizing epochs, an auditor replaying and
// tailing the board, an operator rebooting from the log — and report nine
// end-to-end metrics (untraced pass) or a per-layer budget (traced pass).
// BENCHMARK.json at the repository root declares the metrics and their
// regression bounds; README.md in this directory says what each one means.
//
//	bash bench/run.sh --workload node-batch64 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                       # every workload, both passes, one JSON document
//	bash bench/run.sh -repeat 10            # two interleaved sets of 10: the code against itself
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// benchmarkJSON is the declaration -compare and -repeat read their bounds
// from: the one at the root of the checkout, where run.sh starts the program.
const benchmarkJSON = "BENCHMARK.json"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	outDir   string
	scratch  string
	repeat   int
	compare  bool
	// wrapAdmit is no flag: only the test that shows the correctness gate
	// bites sets it (see deployment.wrapAdmit).
	wrapAdmit func(admitter) admitter
}

func realMain(args []string, stdout, stderr io.Writer) int {
	return mainWith(options{}, args, stdout, stderr)
}

// mainWith is realMain with o's flagless fields already set.
func mainWith(o options, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all (each in a child process, both passes)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the timed section (BENCHMARK.json's run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke (small epochs, for tests)")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for trace files and -repeat's documents (the tests pass a temporary one)")
	fs.StringVar(&o.scratch, "scratch", ".bench_build/tmp", "directory for the run's durable boards (likewise)")
	fs.IntVar(&o.repeat, "repeat", 0, "run two interleaved sets of N untraced runs per workload and compare them")
	fs.BoolVar(&o.compare, "compare", false, "compare two documents: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.scale != "full" && o.scale != "smoke" {
		fmt.Fprintf(stderr, "bench: -scale %q is neither full nor smoke\n", o.scale)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d is neither 0 nor 1\n", o.trace)
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two documents")
			return 2
		}
		err = compareFiles(fs.Arg(0), fs.Arg(1), stderr)
	case o.repeat > 0:
		err = repeat(o, stderr)
	case o.workload == "all":
		err = runAll(o, stdout, stderr)
	default:
		err = runOne(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints two JSON lines: the
// run's identity, then — last, as the driver expects — the verdict line.
// Nothing is printed on stdout unless the run was correct.
func runOne(o options, stdout, stderr io.Writer) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := run(runConfig{w: w, seed: o.seed, seconds: o.seconds, trace: o.trace == 1, smoke: o.scale == "smoke",
		outDir: o.outDir, scratch: o.scratch, log: stderr, wrapAdmit: o.wrapAdmit})
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(res.runInfo); err != nil {
		return err
	}
	return enc.Encode(res.verdict)
}

// environment is recorded with every document.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Fsync      string  `json:"fsync"`
	Network    string  `json:"network"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
}

// document is the one-JSON-document form: every run, every metric by name.
type document struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Runs   []result    `json:"runs"`
}

func newDocument(o options) *document {
	return &document{Schema: "vdp-bench/1", Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Fsync:   "on for node-*, replay-4k, sketch-hh (FileLog default); cluster-2x2-batch64 is in memory",
		Network: "loopback TCP, servers in the benchmark's process", Seconds: o.seconds, Scale: o.scale,
	}}
}

// child runs one workload pass in a process of its own, so peak_rss_mb is that
// workload's alone, and parses the two lines runOne printed.
func child(o options, workload string, seed int64, trace int, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-scale", o.scale, "-out", o.outDir, "-scratch", o.scratch)
	var out, diag bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, io.MultiWriter(stderr, &diag)
	if err := cmd.Run(); err != nil {
		lines := bytes.Split(bytes.TrimSpace(diag.Bytes()), []byte("\n"))
		return nil, fmt.Errorf("%s (seed %d, trace %d): %w: %s", workload, seed, trace, err, lines[len(lines)-1])
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: child printed %d lines, want 2", workload, len(lines))
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-2], &res.runInfo); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res.verdict); err != nil {
		return nil, err
	}
	return &res, nil
}

// runAll runs every workload, untraced then traced, and prints one document.
func runAll(o options, stdout, stderr io.Writer) error {
	doc := newDocument(o)
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(o, w.name, o.seed, trace, stderr)
			if err != nil {
				return err
			}
			doc.Runs = append(doc.Runs, *res)
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
