// Command bench is the repository's one seeded benchmark (ISSUE 11): seven
// workloads, end-to-end metrics with regression bounds, and a traced pass
// that times every layer's public functions from outside.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process;
//	                                                         the last stdout line is its JSON outcome
//	bench -seed N [-reps R] [-trace 1]                       every workload, each in a fresh child
//	                                                         process; writes <out>/results.json
//	bench -check A.json B.json                               compare two result sets against the bounds
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in-process and print its JSON outcome (default: all, each in a child process)")
	seed := fs.Uint64("seed", 1, "root seed: every input is derived from it")
	seconds := fs.Float64("seconds", 25, "measuring time per run")
	trace := fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics, spans to <out>/trace-<workload>.json)")
	out := fs.String("out", "bench/out", "directory for results, traces and scratch files")
	reps := fs.Int("reps", 1, "all-workloads mode: runs per workload, at seeds seed, seed+1, …")
	check := fs.Bool("check", false, "compare two results.json files: bench -check A.json B.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	switch {
	case *check:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -check takes two results.json files")
			return 2
		}
		return checkMode(fs.Arg(0), fs.Arg(1))
	case *workload == "":
		return allMode(*seed, *seconds, *reps, *trace == 1, *out)
	case workloadFor(*workload) == nil:
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out, setups: defaultSetups}
	res, rows, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printRows(cfg, res, rows)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return exitCode(res)
}

// exitCode is non-zero when any operation failed or any gate missed.
func exitCode(res *outcome) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// printRows lists every metric of one run by name, with its unit and,
// where the value summarises a sample, the sample count, the median, the
// quartiles and the highest percentile the sample supports.
func printRows(cfg config, res *outcome, rows map[string]summary) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-16s %-36s %12s %-7s %6s %12s %12s %12s  %s\n", "workload", "metric", "value", "unit", "n", "median", "q1", "q3", "tail")
	for _, n := range names {
		m := res.Metrics[n]
		s, ok := rows[n]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "%-16s %-36s %12.6g %-7s %6s %12s %12s %12s  -\n", cfg.workload, n, m.Value, m.Unit, "-", "-", "-", "-")
		case s.TailP == 0:
			fmt.Fprintf(os.Stderr, "%-16s %-36s %12.6g %-7s %6d %12.6g %12.6g %12.6g  -\n", cfg.workload, n, m.Value, m.Unit, s.N, s.Median, s.Q1, s.Q3)
		default:
			fmt.Fprintf(os.Stderr, "%-16s %-36s %12.6g %-7s %6d %12.6g %12.6g %12.6g  p%g=%.6g\n", cfg.workload, n, m.Value, m.Unit, s.N, s.Median, s.Q1, s.Q3, s.TailP, s.Tail)
		}
	}
	fmt.Fprintf(os.Stderr, "%-16s attempted %d, failed %d, correct %v\n", cfg.workload, res.Attempted, res.Failed, res.Correct)
}
