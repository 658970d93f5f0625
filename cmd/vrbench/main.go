// Command vrbench reproduces the tables and figures of the Visual Road
// paper's evaluation section at model scale, printing the measured rows
// or series alongside the paper's reported shape.
//
// Usage:
//
//	vrbench -exp table1|table2|table9|fig2|fig5|fig6|fig7|fig8|fig9|quality|modes|online|shard|tile|all [flags]
//	vrbench -shard-worker [-shard-listen ADDR]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vcd"
)

func main() { os.Exit(run()) }

// words is vrbench's wording of the shared flag groups (internal/cli).
var words = cli.Words{
	"seed":          "dataset seed",
	"validate":      "validate comparison results against the reference implementation (fig5/fig6)",
	"shard-workers": "route fig5's batches through the shard plane with N in-process workers (0/1 = single-process); results are identical at any count",
	"shard-addrs":   "comma-separated addresses of remote shard workers (vrbench -shard-worker); overrides -shard-workers",
	"shard-worker":  "run as a shard worker: serve coordinator connections instead of running experiments",
	"report":        "print the stage-breakdown telemetry table after the experiments",
}

// run holds the whole CLI body so profile-writing defers fire on every
// exit path (os.Exit would skip them).
func run() (code int) {
	fs := flag.CommandLine
	exp := flag.String("exp", "all", "experiment to run (table1, table2, table9, fig2, fig5, fig6, fig7, fig8, fig9, quality, modes, online, shard, all)")
	scale := flag.Int("scale", 4, "scale factor L for comparison experiments")
	duration := flag.Float64("duration", 1.0, "per-camera video duration in seconds (model scale)")
	videos := flag.Int("videos", 6, "traffic cameras per table9 corpus, rounded up to whole tiles of 4")
	frames := flag.Int("frames", 240, "frames per corpus for the quality experiment")
	workers := flag.Int("workers", 0, "dataset-generation worker goroutines (0 = one per CPU); bytes are identical at any count")
	runFlags := cli.BindRun(fs, words)
	onlineFaults := flag.String("online-faults", "", "comma-separated drop rates for the online experiment (default 0,0.01,0.05)")
	onlineSeed := flag.Uint64("online-seed", 1, "seed keying the online fault schedule")
	shardFlags := cli.BindShard(fs, words, 0)
	worker := cli.BindWorker(fs, words)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	obs := cli.BindObs(fs, words)
	traceFile := flag.String("trace", "", "write a Go execution trace to this file (stage spans appear as user regions)")
	flag.Parse()

	// Jobs carry the dataset generation spec, so vrbench's workers need
	// no shared filesystem.
	if worker.Enabled {
		return worker.Run("")
	}
	opt, err := runFlags.Options()
	if err != nil {
		return cli.UsageError(fs, err)
	}
	copt, err := shardFlags.Options()
	if err != nil {
		return cli.UsageError(fs, err)
	}
	// cfg is the invocation's election; each experiment adds what is its
	// own (topology, query subset, budgets) to a copy. -validate is
	// fig5/fig6's, as its usage says: no other experiment reports a
	// validation result.
	validate := opt.Validate
	opt.Validate = false
	cfg := core.CompareConfig{Options: opt, Scale: *scale, Duration: *duration, GenWorkers: *workers}
	if err := obs.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "vrbench: %v\n", err)
		return 1
	}
	// A mid-run debug-server failure surfaces from the closer; it must
	// change the exit status even when the experiments passed.
	defer func() { code = obs.Exit(code) }()
	if *traceFile != "" {
		stop, err := startTrace(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vrbench: trace: %v\n", err)
			return 1
		}
		defer stop()
	}
	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vrbench: cpuprofile: %v\n", err)
			return 1
		}
		defer stop()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}
	iv := metrics.Begin()
	// art is the -metrics-json artifact: the invocation's interval plus
	// the runs of table9, fig5 and fig6.
	var art vcd.Artifact

	runners := map[string]func() error{
		"table1":  runTable1,
		"table2":  runTable2,
		"table9":  func() error { return runTable9(*videos, *duration, cfg.Seed, *workers, &art) },
		"fig2":    func() error { return runFig2(*scale, cfg.Seed) },
		"fig5":    func() error { c := cfg; c.Validate, c.Shard = validate, copt; return runFig5(c, &art) },
		"fig6":    func() error { c := cfg; c.Validate = validate; return runFig6(c, &art) },
		"fig7":    runFig7,
		"fig8":    func() error { return runFig8(*duration, cfg.Seed, *workers) },
		"fig9":    func() error { return runFig9(*duration, cfg.Seed) },
		"quality": func() error { return runQuality(*frames, cfg.Seed) },
		"modes":   func() error { return runModes(cfg) },
		"online":  func() error { c := cfg; c.Seed = *onlineSeed; return runOnline(c, *onlineFaults) },
		"shard":   func() error { return runShardSweep(cfg) },
		"tile":    func() error { return runTileSweep(cfg) },
	}
	order := []string{"table1", "table2", "fig2", "table9", "fig5", "fig6", "fig7", "fig8", "fig9", "quality", "modes", "online", "shard", "tile"}

	switch {
	case *exp == "all":
		for _, name := range order {
			fmt.Printf("\n================ %s ================\n", name)
			if err := runners[name](); err != nil {
				fmt.Fprintf(os.Stderr, "vrbench: %s: %v\n", name, err)
				code = 1
				break
			}
		}
	default:
		runner, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "vrbench: unknown experiment %q (have: %s, all)\n", *exp, strings.Join(order, ", "))
			return 2
		}
		if err := runner(); err != nil {
			fmt.Fprintf(os.Stderr, "vrbench: %v\n", err)
			code = 1
		}
	}

	process := iv.End()
	if obs.Report {
		fmt.Println("\n---- pipeline telemetry ----")
		process.Telemetry.WriteTable(os.Stdout)
	}
	art.Process = &process
	if err := obs.WriteArtifact(art); err != nil {
		fmt.Fprintf(os.Stderr, "vrbench: metrics-json: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func runTable1() error {
	fmt.Println("Table 1: distinct inputs used by recent VDBMS evaluations (static survey data)")
	fmt.Printf("%-12s %s\n", "Name", "# Distinct Inputs")
	for _, e := range core.Table1 {
		fmt.Printf("%-12s %s\n", e.Name, e.DistinctInputs)
	}
	return nil
}

func runTable2() error {
	fmt.Println("Table 2: pregenerated dataset configurations")
	fmt.Printf("%-10s %-6s %-12s %-10s\n", "Name", "L", "Resolution", "Duration")
	for _, p := range core.Presets {
		fmt.Printf("%-10s %-6d %dx%-7d %4.0f min\n",
			p.Name, p.Params.Scale, p.Params.Width, p.Params.Height, p.Params.Duration/60)
	}
	return nil
}

func runTable9(videos int, duration float64, seed uint64, workers int, art *vcd.Artifact) error {
	fmt.Println("Table 9: dataset validation (runtimes + speedup vs recorded baseline)")
	fmt.Println("paper shape: Visual Road tracks baseline (0.6-1.0x); Duplicates let caching")
	fmt.Println("engines over-optimize (red/yellow); Random inflates decode-bound queries (4-26x)")
	res, err := core.Table9(core.Table9Config{NumVideos: videos, Duration: duration, Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	for _, run := range res.Runs {
		art.Runs = append(art.Runs, vcd.Summarize(run.RunReport))
	}
	printTable9(res)
	return nil
}

func printTable9(res *core.Table9Result) {
	systems := []string{"lightdblike", "scannerlike"}
	fmt.Printf("%-7s", "Query")
	for _, c := range res.Corpora {
		for _, s := range systems {
			fmt.Printf(" %18s", fmt.Sprintf("%s/%s", shortCorpus(c), shortSys(s)))
		}
	}
	fmt.Println()
	for _, q := range res.Config.Queries {
		fmt.Printf("%-7s", q)
		for _, c := range res.Corpora {
			for _, s := range systems {
				cell, ok := res.Cell(q, s, c)
				if !ok {
					fmt.Printf(" %18s", "-")
					continue
				}
				mark := ""
				if cell.Magnitude {
					mark = "!"
				}
				if res.Disagreements[string(q)+"|"+c] {
					mark += "*"
				}
				fmt.Printf(" %18s", fmt.Sprintf("%7.0fms (%4.1fx)%s", cell.Elapsed.Seconds()*1000, cell.Ratio, mark))
			}
		}
		fmt.Println()
	}
	fmt.Println("(! = order-of-magnitude discrepancy vs baseline; * = faster system flips)")
}

func shortCorpus(c string) string {
	switch c {
	case "ua-detrac-proxy":
		return "base"
	case "visual-road":
		return "vroad"
	}
	return c
}

func shortSys(s string) string { return strings.TrimSuffix(s, "like") }

func runFig5(cfg core.CompareConfig, art *vcd.Artifact) error {
	fmt.Printf("Figure 5: runtime by query, L=%d (model scale)\n", cfg.Scale)
	fmt.Println("paper shape: NoScope fastest on Q2(c), supports only Q1/Q2(c);")
	fmt.Println("composites/VR (Q7-Q10) cost more than micro queries; Q2(c) detector-bound")
	if cfg.Shard.Sharded() {
		fmt.Printf("(sharded execution: %d workers)\n", cfg.Shard.Shards)
	}
	res, err := core.CompareSystems(cfg)
	if err != nil {
		return err
	}
	art.Runs = append(art.Runs, res.Summaries()...)
	printComparison(res)
	for _, r := range res.Runs {
		if r.Shard != nil {
			fmt.Printf("shard[%s]: %d workers, %d failures, %d reassignments, %d instances retried\n",
				r.System, r.Shard.Workers, r.Shard.WorkerFailures, r.Shard.Reassignments, r.Shard.RetriedInstances)
		}
	}
	return nil
}

func printComparison(res *core.ComparisonResult) {
	systems := []string{"scannerlike", "lightdblike", "noscopelike"}
	fmt.Printf("%-7s %15s %15s %15s\n", "Query", systems[0], systems[1], systems[2])
	for _, q := range res.Config.Queries {
		fmt.Printf("%-7s", q)
		for _, s := range systems {
			cell, ok := res.Cell(s, q)
			switch {
			case !ok || cell.Unsupported:
				fmt.Printf(" %15s", "unsupported")
			case cell.ResourceErrors > 0 && cell.ResourceErrors == cell.BatchSize:
				fmt.Printf(" %15s", "FAILED(mem)")
			default:
				note := ""
				if cell.BatchSplits > 0 {
					note = fmt.Sprintf("+%dsplit", cell.BatchSplits)
				}
				if cell.ResourceErrors > 0 {
					note += fmt.Sprintf(" mem%d/%d", cell.ResourceErrors, cell.BatchSize)
				}
				fmt.Printf(" %15s", fmt.Sprintf("%.0fms%s", cell.Elapsed.Seconds()*1000, note))
			}
		}
		fmt.Println()
	}
}

func runFig6(cfg core.CompareConfig, art *vcd.Artifact) error {
	fmt.Println("Figure 6: runtime vs scale factor per system")
	fmt.Println("paper shape: Scanner falls behind as L grows (materialization thrashing);")
	fmt.Println("Q4 fails on Scanner; LightDB splits Q3/Q4 batches past its 40-video limit")
	cfg.Queries = []queries.QueryID{queries.Q1, queries.Q2a, queries.Q2c, queries.Q4, queries.Q5}
	cfg.ScannerMemoryBudget = 6 << 20
	points, err := core.ScaleSweep(cfg, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	for _, pt := range points {
		fmt.Printf("\n-- L = %d --\n", pt.Scale)
		art.Runs = append(art.Runs, pt.Result.Summaries()...)
		printComparison(pt.Result)
	}
	return nil
}

func runFig7() error {
	fmt.Println("Figure 7: lines of code per query per system (query + extension)")
	fmt.Println("paper shape: Scanner/LightDB similar; NoScope needs only a few lines")
	rows := core.LinesOfCode()
	fmt.Printf("%-7s %-13s %8s %10s\n", "Query", "System", "QueryLOC", "Extension")
	for _, r := range rows {
		if !r.Supported {
			fmt.Printf("%-7s %-13s %8s %10s\n", r.Query, r.System, "-", "-")
			continue
		}
		fmt.Printf("%-7s %-13s %8d %10d\n", r.Query, r.System, r.QueryLOC, r.Extension)
	}
	return nil
}

func runFig8(duration float64, seed uint64, workers int) error {
	fmt.Println("Figure 8: single-node generation time by scale and resolution")
	fmt.Println("paper shape: approximately linear in L at each resolution")
	points, err := core.GeneratorScaleSweep([]int{1, 2, 4}, []string{"1k", "2k", "4k"}, duration, seed, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-6s %-10s %12s %12s\n", "Res", "L", "Pixels", "Elapsed", "Bytes")
	for _, p := range points {
		fmt.Printf("%-6s %-6d %dx%-5d %12s %12d\n", p.Resolution, p.Scale, p.Width, p.Height, p.Elapsed.Round(1e6), p.Bytes)
	}
	return nil
}

func runFig9(duration float64, seed uint64) error {
	fmt.Println("Figure 9: distributed generation time by node count (L=4, 1k)")
	fmt.Println("paper shape: linear speedup — generation needs no coordination")
	points, err := core.GeneratorNodeSweep(4, []int{1, 2, 4, 8}, duration, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s\n", "Nodes", "Elapsed")
	for _, p := range points {
		fmt.Printf("%-6d %12s\n", p.Nodes, p.Elapsed.Round(1e6))
	}
	return nil
}

func runQuality(frames int, seed uint64) error {
	fmt.Println("§6.3.1: detection quality (AP@0.5, vehicles)")
	res, err := core.DetectionQuality(core.QualityConfig{Frames: frames, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %10s %10s %8s\n", "Corpus", "AP@0.5", "Paper", "F1")
	fmt.Printf("%-22s %9.0f%% %9.0f%% %7.0f%%\n", "Visual Road", res.APVisualRoad*100, res.PaperVisualRoad*100, res.F1VisualRoad*100)
	fmt.Printf("%-22s %9.0f%% %9.0f%% %7.0f%%\n", "UA-DETRAC (proxy)", res.APRecordedProxy*100, res.PaperRecorded*100, res.F1RecordedProxy*100)
	fmt.Printf("%-22s %10s %9.0f%%\n", "VOC reference", "-", res.PaperVOCReference*100)
	return nil
}

func runModes(cfg core.CompareConfig) error {
	fmt.Println("§6.4: write vs streaming mode (paper: deltas under 2.5%)")
	res, err := core.WriteVsStreaming(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %12s %12s %8s\n", "System", "Write", "Streaming", "Delta")
	for _, r := range res {
		fmt.Printf("%-13s %12s %12s %7.1f%%\n", r.System, r.Write.Round(1e6), r.Streaming.Round(1e6), r.DeltaPct)
	}
	return nil
}

func runOnline(cfg core.CompareConfig, ratesSpec string) error {
	fmt.Println("Online resilience: achieved FPS and degradation vs injected drop rate (RTP)")
	fmt.Println("paper context: online mode reports frames/second; faults are seeded and replayable")
	rates := core.OnlineFaultRates
	if ratesSpec != "" {
		rates = rates[:0]
		for _, part := range strings.Split(ratesSpec, ",") {
			var r float64
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &r); err != nil {
				return fmt.Errorf("vrbench: online-faults %q: %w", part, err)
			}
			rates = append(rates, r)
		}
	}
	reports, err := core.OnlineResilience(cfg, rates, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-7s %7s %7s %8s %8s %8s %6s %8s %8s %9s\n",
		"Query", "Drop", "Batch", "Frames", "FPS", "Dropped", "Gaps", "Resyncs", "Retries", "Degraded")
	for i, rep := range reports {
		for _, b := range rep.Queries {
			r := b.Online
			if r == nil { // no stream of the batch completed
				r = &vcd.OnlineReport{}
			}
			fmt.Printf("%-7s %6.1f%% %3d/%-3d %8d %8.1f %8d %6d %8d %8d %9d\n",
				b.Query, rates[i]*100, b.Completed, b.BatchSize, r.Frames, r.FPS,
				r.FramesDropped, r.Gaps, r.Resyncs, r.Retries, r.Degraded)
		}
	}
	return nil
}

// runShardSweep measures the full Light-DB-like query batch through the
// coordinator/worker plane at worker counts 1, 2, and 4 — the execution
// counterpart of Figure 9's generator node sweep. The shard plane
// guarantees identical results at every count; the sweep shows what the
// topology costs (single core) or buys (multiple cores).
// runTileSweep measures the tiled spatial decode path: the Q1
// (select/crop) batch on the same city encoded untiled and as a 2x2
// tile grid. At 1x1 the bitstream is bit-identical to the pre-tile
// encoder; at 2x2 each instance's declared ROI reconstructs only the
// tiles it touches, so decode work shrinks with spatial selectivity
// while results stay identical within each grid's bitstream.
func runTileSweep(cfg core.CompareConfig) error {
	fmt.Println("Tiled spatial decode: Q1 batch by tile grid (1x1 = untiled baseline)")
	points, err := core.TileSweep(cfg, [][2]int{{1, 1}, {2, 2}})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-14s %12s %8s %12s %10s\n", "Grid", "System", "Elapsed", "Frames", "FramesDec", "HitRate")
	for _, p := range points {
		for _, run := range p.Result.Runs {
			cell, ok := p.Result.Cell(run.System, queries.Q1)
			if !ok {
				continue
			}
			fmt.Printf("%-8s %-14s %12s %8d %12d %9.0f%%\n",
				p.Grid(), run.System, cell.Elapsed.Round(1e6), cell.Frames,
				run.DecodedCache.FramesDecoded, 100*run.DecodedCache.HitRate())
		}
	}
	if len(points) == 2 {
		for _, run := range points[0].Result.Runs {
			base, ok1 := points[0].SystemElapsed(run.System)
			tiled, ok2 := points[1].SystemElapsed(run.System)
			if ok1 && ok2 && tiled > 0 {
				fmt.Printf("%s: 2x2 ROI decode speedup %.2fx\n", run.System, base.Seconds()/tiled.Seconds())
			}
		}
	}
	return nil
}

func runShardSweep(cfg core.CompareConfig) error {
	fmt.Println("Sharded execution: batch runtime by worker count (in-process pipe workers)")
	fmt.Println("paper shape (Fig. 9 applied to execution): flat on one core, scaling with cores;")
	fmt.Println("results are byte-identical at every worker count")
	points, err := core.ShardSweep(cfg, "lightdblike", []int{1, 2, 4})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %10s %8s %10s\n", "Workers", "Elapsed", "FPS", "Frames", "Failures")
	for _, p := range points {
		fmt.Printf("%-8d %12s %10.1f %8d %10d\n",
			p.Shards, p.Elapsed.Round(1e6), p.FPS(), p.Frames, p.Counters.WorkerFailures)
	}
	return nil
}

func runFig2(scale int, seed uint64) error {
	fmt.Printf("Figure 2: overhead view of a randomized Visual City (L=%d)\n", scale)
	out, err := core.OverheadMap(scale, seed)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
