// Command vdpbench regenerates the paper's evaluation tables and figures
// from the reimplemented system.
//
// Usage:
//
//	vdpbench [-scale quick|standard|paper] [-only table1,figure3,figure4,table2,micro,dperror]
//
// The default runs every experiment at quick scale (seconds). Standard
// scale takes minutes; paper scale uses the paper's literal workload sizes
// (n = 10^6 clients, nb = 262144 coins) and can take hours with math/big
// arithmetic — see EXPERIMENTS.md for recorded results. An unknown -only
// name exits 2 without running anything; a failed experiment exits 1.
//
// The system around the protocol (admission, durability, cluster, tail,
// heavy hitters) is measured by the repository benchmark in bench/, not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

type experiment struct {
	name string
	run  func(experiments.Scale) (interface{ Format() string }, error)
}

// all lists the paper's experiments in run order.
var all = []experiment{
	{"table1", func(s experiments.Scale) (interface{ Format() string }, error) { return experiments.Table1AtScale(s) }},
	{"figure3", func(s experiments.Scale) (interface{ Format() string }, error) { return experiments.Figure3AtScale(s) }},
	{"figure4", func(s experiments.Scale) (interface{ Format() string }, error) { return experiments.Figure4AtScale(s) }},
	{"table2", func(experiments.Scale) (interface{ Format() string }, error) { return experiments.Table2() }},
	{"micro", func(experiments.Scale) (interface{ Format() string }, error) { return experiments.Microbench() }},
	{"dperror", func(s experiments.Scale) (interface{ Format() string }, error) { return experiments.DPErrorAtScale(s) }},
}

// names is the comma-separated list of every experiment name.
func names() string {
	s := make([]string, len(all))
	for i, e := range all {
		s[i] = e.name
	}
	return strings.Join(s, ",")
}

// selectExperiments returns the experiments named in the comma-separated
// -only value, in run order; an empty value selects all of them. A name
// that matches no experiment is an error, so a typo never runs nothing.
func selectExperiments(only string) ([]experiment, error) {
	if strings.TrimSpace(only) == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if !slices.ContainsFunc(all, func(e experiment) bool { return e.name == name }) {
			return nil, fmt.Errorf("unknown -only name %q (valid: %s)", name, names())
		}
		want[name] = true
	}
	var out []experiment
	for _, e := range all {
		if want[e.name] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick|standard|paper")
	onlyFlag := flag.String("only", "", "comma-separated subset: "+names())
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	exps, err := selectExperiments(*onlyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("verifiable-dp benchmark suite (scale=%s)\n", scale)
	fmt.Println(strings.Repeat("=", 72))
	failed := false
	for _, e := range exps {
		start := time.Now()
		res, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "[%s] FAILED: %v\n", e.name, err)
			failed = true
			continue
		}
		fmt.Printf("\n[%s] (took %v)\n%s\n", e.name, time.Since(start).Round(time.Millisecond), res.Format())
	}
	if failed {
		os.Exit(1)
	}
}
