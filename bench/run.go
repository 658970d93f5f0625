package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vfs"
)

// config is one workload run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// setups is how many times the inputs are built (defaultSetups; one
	// in tests). Each set-up builds its own dataset and the timed
	// iterations rotate over all of them, so setup_s is a median and no
	// single city decides the result.
	setups int
	// smoke runs one timed iteration (serve: 10 jobs) — the go-test size.
	smoke bool
	// corrupt flips a reference digest so that a correctness gate must
	// fail; tests use it to prove a miss reaches the exit code.
	corrupt bool
}

const defaultSetups = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the line the acceptance driver reads.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run carries one workload run's state: the operation ledger, the metric
// values and the tracer.
type run struct {
	cfg       config
	tr        *tracer
	tmp       string // scratch directory inside outDir, removed at exit
	deadline  time.Time
	attempted int
	failed    int
	vals      map[string]float64
	rows      map[string]summary // sample statistics behind a value, where it has any
}

// check books one attempted operation and, when it missed, one failure.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", r.cfg.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

// setMedian reports the median of a sample.
func (r *run) setMedian(name string, xs []float64) { r.setPercentile(name, xs, 50) }

// setPercentile reports percentile p of a sample and remembers the
// sample's statistics for the printed row. An empty sample reports
// nothing (the metric stays 0).
func (r *run) setPercentile(name string, xs []float64, p float64) {
	if len(xs) == 0 {
		return
	}
	s := summarize(xs)
	r.vals[name] = percentile(xs, p)
	r.rows[name] = s
}

// quietPercentile is the percentile of a run's iteration times that a
// timing metric reports. On a shared host a neighbour only ever adds time,
// in bursts of a second to a minute, so the faster half of a run is the
// half least disturbed, and its median — the run's lower quartile — is
// steadier from run to run than the run's median (README, "Measured
// spread"). A code change shifts every quantile. It is the lowest quantile
// with ten samples below it (minBeyond) at every gated workload's
// iteration count.
const quietPercentile = 25

// setTiming reports a run's iteration times as one timing metric.
func (r *run) setTiming(name string, xs []float64) { r.setPercentile(name, xs, quietPercentile) }

// timed reports whether the timed phase should run another iteration:
// at least one always, then until the run's measuring time is used up.
func (r *run) timed(i int) bool {
	if i == 0 {
		return true
	}
	return !r.cfg.smoke && time.Now().Before(r.deadline)
}

// budget starts a measuring phase that may use the given share of
// --seconds.
func (r *run) budget(share float64) {
	r.deadline = time.Now().Add(time.Duration(share * r.cfg.seconds * float64(time.Second)))
}

// Dataset shape shared by every workload (ISSUE 11): 2 tiles × 8 cameras
// = 16 clips × 15 frames of 192×108, ≈7.5 MB of raw YUV 4:2:0.
const (
	dsScale    = 2
	dsWidth    = 192
	dsHeight   = 108
	dsDuration = 1.0
	dsFPS      = 15
	dsClips    = dsScale * 8
	dsFrames   = 15
)

// rawFrameBytes is one frame's Y+U+V samples; throughputs count these
// raw samples ("pixels") so encode and decode are comparable.
func rawFrameBytes(w, h int) int64 { return int64(w*h) + 2*int64((w+1)/2)*int64((h+1)/2) }

var dsRawBytes = int64(dsClips*dsFrames) * rawFrameBytes(dsWidth, dsHeight)

// genOptions is the generator configuration. The tile pool is narrowed
// to one density and dry weather: drawn from all 72 pool tiles, two-tile
// cities differ by 2× in render and encode cost from seed to seed (rain
// alone triples the bitstream), which no regression bound survives. The
// filters are recorded in the manifest, so loading regenerates the same
// city. Nodes only partitions the accounting (Result.NodeTimes): with
// one node per camera it yields per-clip times.
var genOptions = vcg.Options{
	Captions: true, QP: 22,
	DensityFilter: "Moderate", WeatherFilter: "dry",
	Nodes: dsClips,
}

func hyperparams(seed uint64) vcity.Hyperparams {
	return vcity.Hyperparams{Scale: dsScale, Width: dsWidth, Height: dsHeight, Duration: dsDuration, FPS: dsFPS, Seed: seed}
}

// datasetFamily seeds the datasets, which do not depend on --seed: the
// k-th dataset is the same city in every run. Measured with per-seed
// cities, the spread of batch_s over ten seeds was 25–30 % on the decode-
// bound workloads (decode and encode cost follow scene content) against
// 1.5 % between repeats of one seed — wider than any bound the driver
// accepts. So content is held fixed and --seed drives what can be
// averaged within a run: plans, arrivals, tenants, mixes, job seeds, and
// the generate workload's cities.
const datasetFamily = 0x5eed

// dataset is one generated and staged input set.
type dataset struct {
	store  vfs.Store
	ds     *vcd.Dataset
	ratio  float64 // container bytes of the clips per raw byte
	loadMS float64
}

// buildDataset generates the k-th dataset into store and stages it.
func buildDataset(k int, store vfs.Store) (*dataset, error) {
	res, err := vcg.Generate(hyperparams(subSeed(datasetFamily, fmt.Sprintf("dataset/%d", k))), genOptions, store)
	if err != nil {
		return nil, fmt.Errorf("generating dataset %d: %w", k, err)
	}
	d := &dataset{store: store, ratio: float64(clipBytes(res)) / float64(dsRawBytes)}
	t0 := time.Now()
	d.ds, err = vcd.LoadDataset(store, detect.ProfileSynthetic)
	d.loadMS = time.Since(t0).Seconds() * 1e3
	if err != nil {
		return nil, fmt.Errorf("loading dataset %d: %w", k, err)
	}
	return d, nil
}

// storeDigest is the sha256 over every (name, bytes) of a store, in name
// order — the identity two generations of one city must share.
func storeDigest(s vfs.Store) (string, error) {
	names, err := s.List()
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		data, err := vfs.ReadAll(s, n)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", n, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// allocBytes is the cumulative heap allocation of the process so far,
// read without stopping the world so that it can sit inside traced spans.
func allocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// workloadFunc runs one workload: set-ups, gates, and either the timed
// end-to-end iterations or the traced pass.
type workloadFunc func(r *run) error

// workloadFor returns the named workload, or nil.
func workloadFor(name string) workloadFunc {
	switch name {
	case "generate":
		return runGenerate
	case "serve_openloop":
		return runServe
	}
	if w, ok := queryWorkloads[name]; ok {
		return func(r *run) error { return runQuery(r, w) }
	}
	return nil
}

// runWorkload executes cfg and returns the driver-facing outcome plus the
// sample statistics behind each value.
func runWorkload(cfg config) (*outcome, map[string]summary, error) {
	fn := workloadFor(cfg.workload)
	if fn == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// End-to-end numbers are taken with the program's own span recorder
	// off and the harness's tracer off; the traced pass turns only the
	// harness's tracer on.
	metrics.SetEnabled(false)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+cfg.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{cfg: cfg, tr: newTracer(cfg.trace), tmp: tmp, vals: map[string]float64{}, rows: map[string]summary{}}
	if err := fn(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
		meta := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds}
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), meta); err != nil {
			return nil, nil, err
		}
	} else {
		r.set("peak_rss_mb", peakRSSMB())
	}
	out := &outcome{Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v := r.vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is not finite", m.Name)
			v = 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	if out.Attempted == 0 {
		out.Attempted, out.Failed = 1, 1 // a run that attempted nothing measured nothing
	}
	out.Correct = out.Failed == 0
	return out, r.rows, nil
}
