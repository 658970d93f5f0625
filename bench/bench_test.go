package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
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

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The harness's vocabulary and BENCHMARK.json cannot drift apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var gated []workloadSpec
	for _, w := range workloadSpecs {
		if workloadFor(w.Name) == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness gates %d", len(b.Workloads), len(gated))
	}
	for i, w := range gated {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, g, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := b.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, g, m)
		}
	}
}

// BENCHMARK.json stays inside the acceptance driver's limits.
func TestBenchmarkJSONLimits(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the allowed form", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range b.Workloads {
		use("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range b.EndToEnd {
		use("end-to-end", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the allowed form", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range b.PerLayer {
		use("per-layer", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the allowed form", m)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, outDir: t.TempDir(), setups: 1, smoke: true}
}

// Every workload, at one iteration (serve: 10 jobs), end to end and
// traced: the run is correct, and the metrics it emits are exactly the
// declared ones, finite, and — end to end — never zero.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			name, specs := w.Name+"/end_to_end", endToEnd
			if trace {
				name, specs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig(t, w.Name, trace)
				res, _, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || exitCode(res) != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(specs))
				}
				nonzero := 0
				for _, m := range specs {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s was not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.Value)
					case got.Value != 0:
						nonzero++
					}
				}
				if nonzero == 0 {
					t.Error("every metric is 0")
				}
				if trace {
					if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(cfg.outDir, "tmp-*")); len(left) > 0 {
					t.Errorf("scratch directories left behind: %v", left)
				}
			})
		}
	}
}

// A corrupted reference digest must reach the outcome and the exit code.
func TestCorruptDigestFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workloads once")
	}
	for _, w := range []string{"generate", "qcache", "serve_openloop"} {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, false)
			cfg.corrupt = true
			res, _, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || exitCode(res) == 0 {
				t.Fatalf("corrupted digest went unnoticed: correct=%v failed=%d exit=%d", res.Correct, res.Failed, exitCode(res))
			}
		})
	}
}

func setOf(seeds []uint64, batch map[string][]float64) *resultSet {
	rs := &resultSet{Fingerprint: fingerprint{NProc: 2, GOMAXPROCS: 2, Go: "go1", Seconds: 10, Seeds: seeds}}
	for _, w := range workloadSpecs {
		vals := batch[w.Name]
		if vals == nil {
			vals = batch[""]
		}
		for i, v := range vals {
			m := map[string]metricValue{}
			for _, e := range endToEnd {
				m[e.Name] = metricValue{Value: 1, Unit: e.Unit}
			}
			m["batch_s"] = metricValue{Value: v, Unit: "s"}
			rs.Runs = append(rs.Runs, runRecord{Workload: w.Name, Seed: seeds[i%len(seeds)], outcome: outcome{Correct: true, Attempted: 1, Metrics: m}})
		}
	}
	return rs
}

func TestCheckVerdicts(t *testing.T) {
	var batch metricSpec
	for _, m := range endToEnd {
		if m.Name == "batch_s" {
			batch = m
		}
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	if _, v := verdict(summarize(steady), summarize(scaled(1+batch.Bound/2)), batch); v != "ok" {
		t.Errorf("half a bound worse: %s, want ok", v)
	}
	if _, v := verdict(summarize(steady), summarize(scaled(0.5)), batch); v != "ok" {
		t.Errorf("twice as fast: %s, want ok", v)
	}
	if worse, v := verdict(summarize(steady), summarize(scaled(1+2*batch.Bound)), batch); v != "regressed" || worse < batch.Bound {
		t.Errorf("two bounds worse: %s (%v), want regressed", v, worse)
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.5, 1.5, 0.8, 1.2, 1.0}
	if _, v := verdict(summarize(steady), summarize(noisy), batch); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", v)
	}
	higher := metricSpec{Name: "x", Better: "higher", Bound: 0.1}
	if _, v := verdict(summarize(steady), summarize(scaled(0.8)), higher); v != "regressed" {
		t.Errorf("higher-is-better metric fell 20%%: %s, want regressed", v)
	}

	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	a := setOf(seeds, map[string][]float64{"": steady})
	if code := compare(a, setOf(seeds, map[string][]float64{"": steady})); code != 0 {
		t.Errorf("identical sets: exit %d", code)
	}
	if code := compare(a, setOf(seeds, map[string][]float64{"": steady, "qmix": scaled(2)})); code != 1 {
		t.Errorf("qmix twice as slow: exit %d, want 1", code)
	}
	if code := compare(a, setOf([]uint64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, map[string][]float64{"": steady})); code != 2 {
		t.Errorf("different seeds: exit %d, want refusal (2)", code)
	}
	other := setOf(seeds, map[string][]float64{"": steady})
	other.Fingerprint.NProc = 64
	if code := compare(a, other); code != 2 {
		t.Errorf("different host fingerprint: exit %d, want refusal (2)", code)
	}
}
