package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vcd"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
	"repro/internal/video"
)

// queryWorkload is one vcd.Run configuration.
type queryWorkload struct {
	name   string
	engine string      // "lightdblike" or "scannerlike"
	opt    vcd.Options // the plan; Seed and ResultStore are set per iteration
}

var q1q5 = []queries.QueryID{queries.Q1, queries.Q5}

// tightCacheBytes holds about 4 of the 16 decoded clips.
const tightCacheBytes = 2 << 20

// ResultMode's zero value is WriteMode, so every plan names its mode.
var queryWorkloads = map[string]queryWorkload{
	"qmix": {"qmix", "lightdblike", vcd.Options{
		Queries:           []queries.QueryID{queries.Q1, queries.Q2a, queries.Q2b, queries.Q2d, queries.Q5, queries.Q6a},
		InstancesPerScale: 4, Mode: vcd.StreamingMode,
	}},
	"qdecode": {"qdecode", "lightdblike", vcd.Options{
		Queries: q1q5, InstancesPerScale: 16, Sequential: true, Mode: vcd.StreamingMode,
	}},
	"qcache": {"qcache", "lightdblike", vcd.Options{
		Queries: q1q5, InstancesPerScale: 16, Mode: vcd.StreamingMode,
	}},
	"qcache_tight": {"qcache_tight", "lightdblike", vcd.Options{
		Queries: q1q5, InstancesPerScale: 16, DecodedCacheBytes: tightCacheBytes, Mode: vcd.StreamingMode,
	}},
	// Q8 (validates 0/2 at 192×108) and scannerlike Q4 (ErrResource by
	// design) are left out so that nothing fails on a healthy tree.
	"composite_write": {"composite_write", "scannerlike", vcd.Options{
		Queries:           []queries.QueryID{queries.Q2c, queries.Q3, queries.Q6b, queries.Q7, queries.Q9, queries.Q10},
		InstancesPerScale: 1, Sequential: true, Mode: vcd.WriteMode, Validate: true,
	}},
}

func newEngine(name string) vdbms.System {
	if name == "scannerlike" {
		return scannerlike.New(scannerlike.Options{})
	}
	return lightdblike.New(lightdblike.Options{})
}

// plan is the workload's options for the iteration named by label: each
// iteration draws its own plan seed, so medians are over plans.
func (w queryWorkload) plan(root uint64, label string) vcd.Options {
	o := w.opt
	o.Seed = subSeed(root, "plan/"+label)
	if o.Mode == vcd.WriteMode {
		o.ResultStore = vfs.NewMemory()
	}
	return o
}

// shortName is a query's name without the parentheses ("Q2(a)" → "Q2a"):
// metric names may not carry them.
func shortName(q queries.QueryID) string {
	return strings.NewReplacer("(", "", ")", "").Replace(string(q))
}

// canonical is the byte form two runs of one plan must share.
func canonical(rep *vcd.RunReport) (string, error) {
	data, err := vcd.MarshalReport(vcd.Summarize(rep).Canonical())
	return string(data), err
}

// tally books a report's instances: one attempted operation each, good
// when it completed and (under Validate) passed validation.
func (r *run) tally(rep *vcd.RunReport, validated bool, what string) {
	for _, q := range rep.Queries {
		good := q.Completed
		if validated {
			good = q.Validation.Passed
		}
		if q.Unsupported {
			r.check(false, "%s: %s is unsupported by %s", what, q.Query, rep.System)
			continue
		}
		r.attempted += q.BatchSize
		if bad := q.BatchSize - good; bad > 0 {
			r.failed += bad
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s: %s: %d of %d instances failed or missed validation\n", r.cfg.workload, what, q.Query, bad, q.BatchSize)
		}
	}
}

// storedRatio is Σ container bytes ÷ Σ raw Y+U+V bytes of the frames
// they hold, over every object of a result store.
func storedRatio(s vfs.Store) (float64, map[string]string, error) {
	names, err := s.List()
	if err != nil {
		return 0, nil, err
	}
	sort.Strings(names)
	var stored, raw int64
	digests := map[string]string{}
	for _, n := range names {
		data, err := vfs.ReadAll(s, n)
		if err != nil {
			return 0, nil, err
		}
		enc, _, err := container.Demux(bytes.NewReader(data))
		if err != nil {
			return 0, nil, fmt.Errorf("result %s does not demux: %w", n, err)
		}
		stored += int64(len(data))
		raw += int64(len(enc.Frames)) * rawFrameBytes(enc.Config.Width, enc.Config.Height)
		digests[n] = digestOf(data)
	}
	return ratio(float64(stored), float64(raw)), digests, nil
}

func sameDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return len(a) > 0
}

// runQuery runs one vcd workload: set-ups, gates, then the timed
// iterations or the traced pass.
func runQuery(r *run, w queryWorkload) error {
	sys := newEngine(w.engine)

	// Set-up k builds dataset k and runs one untimed warm-up iteration on
	// it (demux staging, boxes/stitched inputs, frame pools).
	var sets []*dataset
	var setupS []float64
	for k := 0; k < r.cfg.setups; k++ {
		t0 := time.Now()
		d, err := buildDataset(k, vfs.NewMemory())
		if err != nil {
			return err
		}
		if _, err := vcd.Run(d.ds, sys, w.plan(r.cfg.seed, fmt.Sprintf("warm/%d", k))); err != nil {
			return fmt.Errorf("warm-up on dataset %d: %w", k, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sets = append(sets, d)
	}
	r.setMedian("setup_s", setupS)

	ref, err := r.queryGates(w, sets[0], sys)
	if err != nil {
		return err
	}
	if r.cfg.trace {
		return traceQuery(r, w, sets, sys)
	}

	// A workload that persists nothing stores only the datasets it reads.
	var batchS, instMS, ratios []float64
	if w.opt.Mode != vcd.WriteMode {
		for _, d := range sets {
			ratios = append(ratios, d.ratio)
		}
	}
	r.budget(1)
	for i := 0; r.timed(i); i++ {
		d := sets[i%len(sets)]
		o := w.plan(r.cfg.seed, fmt.Sprint(i))
		t0 := time.Now()
		rep, err := vcd.Run(d.ds, sys, o)
		wall := time.Since(t0)
		if !r.check(err == nil, "iteration %d: %v", i, err) {
			continue
		}
		r.tally(rep, o.Validate, fmt.Sprintf("iteration %d", i))
		batchS = append(batchS, wall.Seconds())
		var insts []float64
		for _, q := range rep.Queries {
			for _, in := range q.Instances {
				insts = append(insts, in.Elapsed.Seconds()*1e3)
			}
		}
		instMS = append(instMS, median(insts))
		var digests map[string]string
		if o.Mode == vcd.WriteMode {
			var ratio float64
			ratio, digests, err = storedRatio(o.ResultStore)
			if r.check(err == nil, "iteration %d results: %v", i, err) {
				ratios = append(ratios, ratio)
			}
		}
		if i == 0 {
			// Iteration 0 repeats the gates' plan: same canonical report
			// and, when results persist, the same (name, sha256) set.
			c, err := canonical(rep)
			r.check(err == nil && c == ref.canon, "iteration 0 canonical report differs from the reference run")
			if o.Mode == vcd.WriteMode {
				r.check(sameDigests(digests, ref.digests), "iteration 0 persisted a different (name, sha256) set than the reference run")
			}
		}
	}
	r.setTiming("batch_s", batchS)
	r.setTiming("latency_p50_ms", instMS)
	r.setMedian("stored_bytes_per_raw_byte", ratios)
	return nil
}

// reference is what the gates hand the timed phase to compare with.
type reference struct {
	canon   string            // canonical report of (dataset 0, plan 0)
	digests map[string]string // its persisted results, WriteMode workloads
}

// queryGates runs the correctness gates on dataset 0 with iteration 0's
// plan seed. None of it is charged to a timed iteration.
func (r *run) queryGates(w queryWorkload, d *dataset, sys vdbms.System) (*reference, error) {
	ref := &reference{}
	p0 := w.plan(r.cfg.seed, "0")

	if w.opt.Mode == vcd.WriteMode {
		// composite_write: the reference is the plan itself, run once more.
		rep, err := vcd.Run(d.ds, sys, p0)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		r.tally(rep, p0.Validate, "reference run")
		if ref.canon, err = canonical(rep); err != nil {
			return nil, err
		}
		if _, ref.digests, err = storedRatio(p0.ResultStore); err != nil {
			return nil, err
		}
	} else {
		// The Q1+Q5 plan reports byte-identically in the three execution
		// modes (DESIGN §5.5): sequential, cached, cached under eviction.
		modes := []struct {
			name string
			opt  vcd.Options
		}{
			{"sequential", vcd.Options{Sequential: true}},
			{"cache", vcd.Options{}},
			{"tight cache", vcd.Options{DecodedCacheBytes: tightCacheBytes}},
		}
		var first string
		for _, m := range modes {
			o := m.opt
			o.Queries, o.InstancesPerScale, o.Mode, o.Seed = q1q5, 16, vcd.StreamingMode, p0.Seed
			rep, err := vcd.Run(d.ds, sys, o)
			if err != nil {
				return nil, fmt.Errorf("%s mode: %w", m.name, err)
			}
			c, err := canonical(rep)
			if err != nil {
				return nil, err
			}
			if first == "" {
				first = c
			}
			r.check(c == first, "Q1+Q5 canonical report in %s mode differs from sequential mode", m.name)
		}
		ref.canon = first
		if len(w.opt.Queries) != len(q1q5) {
			// qmix: its own plan, sequentially, is iteration 0's reference.
			o := p0
			o.Sequential = true
			rep, err := vcd.Run(d.ds, sys, o)
			if err != nil {
				return nil, fmt.Errorf("sequential reference: %w", err)
			}
			if ref.canon, err = canonical(rep); err != nil {
				return nil, err
			}
		}
		// One validated run of the plan must pass 100 %.
		o := p0
		o.Validate = true
		rep, err := vcd.Run(d.ds, sys, o)
		if err != nil {
			return nil, fmt.Errorf("validated run: %w", err)
		}
		r.tally(rep, true, "validated run")
	}
	if r.cfg.corrupt {
		ref.canon = "corrupt" + ref.canon
	}
	return ref, nil
}

// encodeResult mirrors the driver's result handling (every result is an
// encoded, muxed video, QP 18) with a span around each layer call.
func encodeResult(tr *tracer, parent, iter int, v *video.Video) error {
	if len(v.Frames) == 0 {
		return nil
	}
	w, h := v.Resolution()
	pix := int64(len(v.Frames)) * rawFrameBytes(w, h)
	sp := tr.start("vcd.result_encode", parent, iter)
	a0 := tr.allocs()
	e := tr.start("codec.encode", sp, iter)
	enc, err := codec.EncodeVideo(v, codec.Config{Width: w, Height: h, FPS: v.FPS, QP: 18})
	if err != nil {
		return err
	}
	tr.end(e, work{Count: int64(len(v.Frames)), Bytes: int64(enc.Size()), Pix: pix, Alloc: tr.allocs() - a0})
	var buf bytes.Buffer
	m := tr.start("container.mux", sp, iter)
	err = container.Mux(&buf, enc, nil)
	tr.end(m, work{Count: 1, Bytes: int64(buf.Len())})
	tr.end(sp, work{Count: int64(len(v.Frames)), Bytes: int64(buf.Len()), Pix: pix})
	return err
}

// serialQuery re-executes a plan decomposed: the harness builds each
// batch, executes each instance and encodes each result itself, one at a
// time, with a span around every call into a layer, then decodes each
// instance's input window in isolation. The shared decoded cache is off,
// as in Sequential mode, so execute spans hold the engine's own decode.
func serialQuery(tr *tracer, w queryWorkload, d *dataset, sys vdbms.System, o vcd.Options, iter int) (time.Duration, error) {
	// A BatchRunner configures the dataset's decoded cache at construction;
	// a Sequential one turns it off.
	if _, err := vcd.NewBatchRunner(d.ds, sys, vcd.Options{Sequential: true, Mode: vcd.StreamingMode}); err != nil {
		return 0, err
	}
	t0 := time.Now()
	it := tr.start("query.serial", 0, iter)
	for _, q := range o.Queries {
		sp := tr.start("vcd.build_batch", it, iter)
		insts, err := vcd.BuildBatch(d.ds, q, o.InstancesPerScale*d.ds.Manifest.Scale, o)
		tr.end(sp, work{Count: int64(len(insts))})
		if err != nil {
			return 0, err
		}
		for _, inst := range insts {
			ex := tr.start(w.engine+".execute."+shortName(q), it, iter)
			frames := 0
			err := sys.Execute(inst, vdbms.SinkFunc(func(key string, v *video.Video) error {
				frames += len(v.Frames)
				return encodeResult(tr, ex, iter, v)
			}))
			tr.end(ex, work{Count: int64(frames)})
			if err != nil {
				return 0, fmt.Errorf("%s: %w", q, err)
			}
			for _, in := range inst.Inputs {
				n := len(in.Encoded.Frames)
				first, last, windowed := queries.FrameWindow(q, inst.Params, in.Encoded.Config.FPS, n)
				sp := tr.start("codec.decode", it, iter)
				if windowed {
					_, err = in.Encoded.DecodeRange(first, last)
				} else {
					first, last = 0, n
					_, err = in.Encoded.Decode()
				}
				tr.end(sp, work{Count: int64(last - first)})
				if err != nil {
					return 0, err
				}
			}
		}
		if quiescer, ok := sys.(interface{ Shutdown() }); ok {
			quiescer.Shutdown()
		}
	}
	tr.end(it, work{})
	return time.Since(t0), nil
}

// timeRun is one vcd.Run with its wall-clock.
func timeRun(d *dataset, sys vdbms.System, o vcd.Options) (*vcd.RunReport, time.Duration, error) {
	t0 := time.Now()
	rep, err := vcd.Run(d.ds, sys, o)
	return rep, time.Since(t0), err
}

// traceQuery is the traced pass of a vcd workload. Every iteration runs
// its plan several ways — as the workload does, sequentially, with the
// program's metrics on, without validation, decomposed with and without
// the recorder — and the comparisons are paired per plan, so that plan-
// to-plan variation cancels.
func traceQuery(r *run, w queryWorkload, sets []*dataset, sys vdbms.System) error {
	if err := layerPass(r, w, sets[0]); err != nil {
		return err
	}
	var realS, instMS, allocMB, loadMS []float64
	var speedup, metricsFrac, validateMS, overheadMS, traceFrac []float64
	var cache metrics.CacheStats
	var frames int
	off := newTracer(false)
	for _, d := range sets {
		loadMS = append(loadMS, d.loadMS)
	}
	r.budget(1)
	for i := 0; r.timed(i); i++ {
		d := sets[i%len(sets)]
		plan := func() vcd.Options { return w.plan(r.cfg.seed, fmt.Sprint(i)) }

		// The workload's own run, exactly as the end-to-end pass does it.
		o := plan()
		a0 := allocBytes()
		sp := r.tr.start("vcd.run", 0, i)
		rep, wall, err := timeRun(d, sys, o)
		r.tr.end(sp, work{})
		if !r.check(err == nil, "iteration %d: %v", i, err) {
			continue
		}
		allocMB = append(allocMB, float64(allocBytes()-a0)/1e6)
		r.tally(rep, o.Validate, fmt.Sprintf("iteration %d", i))
		realS = append(realS, wall.Seconds())
		c := rep.DecodedCache
		cache.Hits, cache.Misses, cache.Evictions = cache.Hits+c.Hits, cache.Misses+c.Misses, cache.Evictions+c.Evictions
		cache.FramesRequested, cache.FramesDecoded = cache.FramesRequested+c.FramesRequested, cache.FramesDecoded+c.FramesDecoded
		for _, q := range rep.Queries {
			frames += q.Frames
			for _, in := range q.Instances {
				instMS = append(instMS, in.Elapsed.Seconds()*1e3)
			}
		}

		// Sequentially: the driver-overhead base, and what the cache and
		// worker pool are compared against.
		seq := wall
		if !w.opt.Sequential {
			o := plan()
			o.Sequential = true
			if _, seq, err = timeRun(d, sys, o); err != nil {
				return err
			}
			speedup = append(speedup, ratio(seq.Seconds(), wall.Seconds()))
		}
		if w.name == "qmix" {
			// DESIGN §5.7 budgets the program's own span recorder below
			// 2 %: the plan once more with it on and once more with it
			// off, in alternating order so that neither side always runs
			// on the warmer process.
			var took [2]time.Duration
			for _, on := range []bool{i%2 == 0, i%2 != 0} {
				metrics.SetEnabled(on)
				_, d, err := timeRun(d, sys, plan())
				metrics.SetEnabled(false)
				if err != nil {
					return err
				}
				took[btoi(on)] = d
			}
			metricsFrac = append(metricsFrac, ratio(took[1].Seconds(), took[0].Seconds())-1)
		}
		if w.opt.Validate {
			// Validation is the harness checking, not the driver driving:
			// the overhead base is the run without it.
			o := plan()
			o.Validate = false
			if _, seq, err = timeRun(d, sys, o); err != nil {
				return err
			}
			validateMS = append(validateMS, (wall-seq).Seconds()*1e3)
		}

		// The decomposed pass with and without the recorder, in alternating
		// order for the same reason.
		var took [2]time.Duration
		for _, on := range []bool{i%2 == 0, i%2 != 0} {
			tr := off
			if on {
				tr = r.tr
			}
			if took[btoi(on)], err = serialQuery(tr, w, d, sys, plan(), i); err != nil {
				return err
			}
		}
		overheadMS = append(overheadMS, (seq-r.tr.sum(w.engine+".execute.", i)).Seconds()*1e3)
		traceFrac = append(traceFrac, ratio(took[1].Seconds(), took[0].Seconds())-1)
	}

	tot := r.tr.totals()
	var exec time.Duration
	for _, q := range w.opt.Queries {
		name := w.engine + ".execute." + shortName(q)
		exec += tot.of(name).Total
		// Self time: the engine's decode and kernel, without the result
		// encode its sink ran.
		r.setMedian(w.engine+".execute_ms."+shortName(q), tot.of(name).SelfDurs)
	}
	re := tot.of("vcd.result_encode")
	r.setMedian("vcd.result_encode_ms", re.Durs)
	r.set("vcd.result_encode_share", ratio(re.Total.Seconds(), exec.Seconds()))
	r.set("vcd.decode_share", ratio(tot.of("codec.decode").Total.Seconds(), exec.Seconds()))
	r.setMedian("vcd.build_batch_ms", tot.of("vcd.build_batch").Durs)
	r.setMedian("vcd.driver_overhead_ms", overheadMS)
	r.setMedian("vcd.load_dataset_ms", loadMS)
	r.setMedian("vcd.validate_ms", validateMS)
	r.set("vcd.cache_hit_rate", cache.HitRate())
	r.set("vcd.cache_decoded_per_req", ratio(float64(cache.FramesDecoded), float64(cache.FramesRequested)))
	r.set("vcd.cache_evictions", ratio(float64(cache.Evictions), float64(len(realS))))
	r.setMedian("vcd.cache_speedup", speedup)
	var realTotal float64
	for _, s := range realS {
		realTotal += s
	}
	r.set("vcd.frames_per_s", ratio(float64(frames), realTotal))
	r.setMedian("vcd.alloc_mb_per_batch", allocMB)
	if supports(len(instMS), 95) {
		r.setPercentile("vcd.instance_p95_ms", instMS, 95)
	}
	r.setEncode(tot)
	r.set("codec.transform_fallbacks", float64(codec.TransformFallbacks()))
	r.setMedian("metrics.enabled_overhead_frac", metricsFrac)
	r.setMedian("bench.trace_overhead_frac", traceFrac)
	return nil
}
