package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint is what two result sets must share to be comparable: the
// host's parallelism, the toolchain, and the inputs (seeds, run length).
// The commit is recorded but deliberately not compared — comparing two
// commits is what -check is for.
type fingerprint struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	Seconds    float64  `json:"seconds"`
	Seeds      []uint64 `json:"seeds"`
}

func (f fingerprint) comparable(g fingerprint) bool {
	f.Commit, g.Commit = "", ""
	return reflect.DeepEqual(f, g)
}

// runRecord is one child run.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	outcome
}

type resultSet struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []runRecord `json:"runs"`
}

// values collects one metric's value over the set's runs of a workload.
func (rs *resultSet) values(workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild runs one workload in a fresh process of this binary, so that
// no workload inherits another's heap, caches or peak RSS, and parses the
// JSON outcome off the last line of its standard output.
func runChild(exe string, cfg config) (*outcome, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace, "--out", cfg.outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res outcome
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: no outcome (%v, exit: %v)", cfg.workload, err, runErr)
	}
	return &res, nil
}

// allMode runs every workload reps times and writes results.json.
func allMode(seed uint64, seconds float64, reps int, trace bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rs := resultSet{Fingerprint: fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: gitCommit(), Seconds: seconds,
	}}
	status := 0
	for rep := 0; rep < reps; rep++ {
		s := seed + uint64(rep)
		rs.Fingerprint.Seeds = append(rs.Fingerprint.Seeds, s)
		for _, w := range workloadSpecs {
			for _, traced := range passes(trace) {
				cfg := config{workload: w.Name, seed: s, seconds: seconds, trace: traced, outDir: out}
				res, err := runChild(exe, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !res.Correct {
					status = 1
				}
				rs.Runs = append(rs.Runs, runRecord{Workload: w.Name, Seed: s, Trace: traced, outcome: *res})
			}
		}
	}
	fmt.Printf("nproc %d, GOMAXPROCS %d, %s, commit %s, seeds %v, %g s per run\n",
		rs.Fingerprint.NProc, rs.Fingerprint.GOMAXPROCS, rs.Fingerprint.Go, rs.Fingerprint.Commit, rs.Fingerprint.Seeds, seconds)
	fmt.Printf("%-16s %-36s %-7s %14s %14s %14s %5s\n", "workload", "metric", "unit", "median", "q1", "q3", "runs")
	for _, w := range workloadSpecs {
		var attempted, failed int
		for _, r := range rs.Runs {
			if r.Workload == w.Name {
				attempted, failed = attempted+r.Attempted, failed+r.Failed
			}
		}
		for _, traced := range passes(trace) {
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, m := range specs {
				s := summarize(rs.values(w.Name, m.Name, traced))
				fmt.Printf("%-16s %-36s %-7s %14.6g %14.6g %14.6g %5d\n", w.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
			}
		}
		fmt.Printf("%-16s %-36s %-7s %14.6g %14s %14s %5s\n", w.Name, "failed_frac", "ratio", ratio(float64(failed), float64(attempted)), "-", "-", "-")
	}
	data, err := json.MarshalIndent(rs, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}

// passes lists the passes a workload gets: end to end, then traced.
func passes(trace bool) []bool {
	if trace {
		return []bool{false, true}
	}
	return []bool{false}
}

func loadResults(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// verdict judges one (workload, end-to-end metric) pair: B against A.
// worse is B's median relative to A's, positive when B is worse.
func verdict(a, b summary, m metricSpec) (worse float64, v string) {
	worse = ratio(b.Median-a.Median, a.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread() > m.Bound || b.spread() > m.Bound:
		// The runs of one side disagree among themselves by more than
		// the bound: the comparison cannot resolve a change that small.
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// checkMode prints one row per (workload, end-to-end metric) and fails
// when any pair regressed or any run was incorrect.
func checkMode(pathA, pathB string) int {
	var sets [2]*resultSet
	for i, path := range []string{pathA, pathB} {
		rs, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = rs
	}
	return compare(sets[0], sets[1])
}

func compare(a, b *resultSet) int {
	if !a.Fingerprint.comparable(b.Fingerprint) {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare: fingerprints differ\n  A: %+v\n  B: %+v\n", a.Fingerprint, b.Fingerprint)
		return 2
	}
	status := 0
	fmt.Printf("A: commit %s\nB: commit %s\n", a.Fingerprint.Commit, b.Fingerprint.Commit)
	fmt.Printf("%-16s %-26s %-6s %11s %11s %11s %11s %11s %11s %8s %6s %s\n",
		"workload", "metric", "unit", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "worse", "bound", "verdict")
	for _, w := range workloadSpecs {
		for _, m := range endToEnd {
			sa, sb := summarize(a.values(w.Name, m.Name, false)), summarize(b.values(w.Name, m.Name, false))
			if sa.N == 0 && sb.N == 0 {
				continue // neither set ran this workload
			}
			if sa.N == 0 || sb.N == 0 {
				fmt.Printf("%-16s %-26s missing from one side\n", w.Name, m.Name)
				status = 1
				continue
			}
			worse, v := verdict(sa, sb, m)
			if v == "regressed" {
				status = 1
			}
			fmt.Printf("%-16s %-26s %-6s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %+7.1f%% %5.0f%% %s\n",
				w.Name, m.Name, m.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, worse*100, m.Bound*100, v)
		}
	}
	for _, rs := range []*resultSet{a, b} {
		for _, r := range rs.Runs {
			if !r.Correct {
				fmt.Printf("%-16s seed %d: incorrect (%d of %d operations failed)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				status = 1
			}
		}
	}
	return status
}
