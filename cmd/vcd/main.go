// Command vcd is the Visual City Driver: it runs the Visual Road
// benchmark against a VDBMS over a generated dataset, measures each
// query batch, validates results, and prints the report.
//
// Usage:
//
//	vcd -data DIR [-system scannerlike|lightdblike|noscopelike]
//	    [-queries Q1,Q2a,...] [-mode write|streaming] [-out DIR]
//	    [-seed S] [-validate] [-instances N]
//	    [-shard-workers N | -shard-addrs HOST:PORT,...]
//	vcd -data DIR -online [-system lightdblike] [-transport pipe|rtp]
//	    [-online-faults SPEC] [-online-seed S] [-online-timeout D]
//	vcd -shard-worker [-shard-listen ADDR] [-data DIR]
//
// Example:
//
//	vcd -data /tmp/vr -system lightdblike -mode streaming -validate
//
// Sharded execution partitions each query batch across worker
// processes (or in-process pipe workers with -shard-workers) and merges
// a report identical to the single-process run:
//
//	vcd -shard-worker -shard-listen 127.0.0.1:7001 -data /tmp/vr &
//	vcd -shard-worker -shard-listen 127.0.0.1:7002 -data /tmp/vr &
//	vcd -data /tmp/vr -shard-addrs 127.0.0.1:7001,127.0.0.1:7002
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/vcd"
	"repro/internal/vdbms"
	"repro/internal/vfs"
)

func main() { os.Exit(run()) }

// words is vcd's wording of the shared flag groups (internal/cli).
var words = cli.Words{
	"queries":       "comma-separated query list (e.g. Q1,Q2a,Q7); default all",
	"seed":          "parameter sampling seed",
	"validate":      "validate results against the reference implementation / scene geometry",
	"instances":     "query instances per unit of scale (the paper uses 4)",
	"shard-workers": "run the batch through the shard plane with N in-process workers (0/1 = single-process); results are identical at any count",
	"shard-addrs":   "comma-separated addresses of remote shard workers (vcd -shard-worker); overrides -shard-workers",
	"shard-worker":  "run as a shard worker: serve coordinator connections instead of executing a benchmark",
	"report":        "print the stage-breakdown telemetry table after the run",
}

func run() (code int) {
	fs := flag.CommandLine
	data := flag.String("data", "", "dataset directory written by vcg (required)")
	system := flag.String("system", "lightdblike", "system under test, offline and -online: scannerlike, lightdblike, noscopelike")
	runFlags := cli.BindRun(fs, words)
	mode := flag.String("mode", "streaming", "result mode: write or streaming")
	out := flag.String("out", "", "result directory (write mode)")
	online := flag.Bool("online", false, "online mode: stream inputs live to -system (Q1/Q2a/Q2c/Q5); scannerlike and noscopelike cannot consume live video and report unsupported")
	transport := flag.String("transport", "pipe", "online transport: pipe or rtp")
	onlineFaults := flag.String("online-faults", "", "online fault spec, e.g. 0.01 or drop=0.01,reorder=0.005,cut=12,dial=2")
	onlineSeed := flag.Uint64("online-seed", 1, "seed keying the deterministic fault schedule")
	onlineTimeout := flag.Duration("online-timeout", 0, "per-stream deadline for online sessions (0 = none)")
	shardFlags := cli.BindShard(fs, words, 0)
	worker := cli.BindWorker(fs, words)
	jsonOut := flag.Bool("json", false, "emit the report as JSON (for downstream tooling)")
	obs := cli.BindObs(fs, words)
	flag.Parse()

	if err := obs.Start(); err != nil {
		fatal(err)
	}
	defer func() { code = obs.Exit(code) }()

	if worker.Enabled {
		return worker.Run(*data)
	}
	if *data == "" {
		return cli.UsageError(fs, errors.New("-data is required"))
	}
	opt, err := runFlags.Options()
	if err != nil {
		return cli.UsageError(fs, err)
	}
	copt, err := shardFlags.Options()
	if err != nil {
		return cli.UsageError(fs, err)
	}
	store, err := vfs.NewLocal(*data)
	if err != nil {
		fatal(err)
	}
	ds, err := vcd.LoadDataset(store, detect.ProfileSynthetic)
	if err != nil {
		fatal(err)
	}
	spec := shard.SystemSpec{Name: *system}
	sys, err := shard.NewSystem(spec)
	if err != nil {
		fatal(err)
	}
	switch *mode {
	case "write":
		if *out == "" {
			fatal(fmt.Errorf("vcd: write mode requires -out"))
		}
		opt.Mode = vcd.WriteMode
		if opt.ResultStore, err = vfs.NewLocal(*out); err != nil {
			fatal(err)
		}
	case "streaming":
	default:
		fatal(fmt.Errorf("vcd: unknown mode %q", *mode))
	}

	fmt.Printf("vcd: benchmarking %s on %s (L=%d, %dx%d, %.0fs)\n",
		sys.Name(), *data, ds.Manifest.Scale, ds.Manifest.Width, ds.Manifest.Height, ds.Manifest.Duration)
	if *online {
		runOnline(ds, sys, opt, obs, *transport, *onlineFaults, *onlineSeed, *onlineTimeout)
		return 0
	}
	var report *vcd.RunReport
	if copt.Sharded() {
		var counters *shard.Counters
		report, counters, err = shard.Run(context.Background(), shard.Plan{
			Dataset: shard.DatasetSpec{Path: *data},
			Store:   store,
			System:  spec,
			Scale:   ds.Manifest.Scale,
			Opt:     opt,
		}, copt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vcd: shard plane: %d workers, %d failures, %d instances retried\n",
			counters.Workers, counters.WorkerFailures, counters.RetriedInstances)
		if t := report.Trace; t != nil && t.SlowestShard >= 0 {
			fmt.Fprintf(os.Stderr, "vcd: stragglers: slowest shard %d (%.2fx mean), p99 instance %.1fms, critical path %.1fms\n",
				t.SlowestShard, t.StragglerRatio, t.P99InstanceMS, t.CriticalPathMS)
		}
	} else {
		report, err = vcd.Run(ds, sys, opt)
		if err != nil {
			fatal(err)
		}
	}
	summary := vcd.Summarize(report)
	if err := obs.WriteArtifact(vcd.Artifact{Runs: []vcd.ReportSummary{summary}}); err != nil {
		fatal(err)
	}
	if obs.Report && report.Telemetry != nil {
		// The table goes to stderr under -json so the JSON stream stays
		// machine-parseable.
		w := os.Stdout
		if *jsonOut {
			w = os.Stderr
		}
		fmt.Fprintln(w, "\n---- pipeline telemetry ----")
		report.Telemetry.WriteTable(w)
	}
	if *jsonOut {
		data, err := vcd.MarshalReport(summary)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return 0
	}
	printReport(report, opt.Validate)
	return 0
}

// runOnline executes the online queries on sys against live-paced
// streams — optionally degraded by a seeded fault plan — and reports
// achieved frames per second plus degradation accounting, as the paper
// requires for online-mode results.
func runOnline(ds *vcd.Dataset, sys vdbms.System, opt vcd.Options, obs *cli.Obs, transportName, faultSpec string, seed uint64, timeout time.Duration) {
	transport, err := vcd.ParseOnlineTransport(transportName)
	if err != nil {
		fatal(err)
	}
	plan, err := stream.ParseFaultSpec(faultSpec, seed, "")
	if err != nil {
		fatal(err)
	}
	qs := opt.Queries
	if len(qs) == 0 {
		qs = []queries.QueryID{queries.Q1, queries.Q2a, queries.Q2c, queries.Q5}
	}
	iv := metrics.Begin()
	online := &vcd.OnlineRun{Transport: transport, FaultSpec: faultSpec, Seed: seed,
		Queries: map[string]*vcd.OnlineReport{}}
	fmt.Printf("\n%-7s %10s %10s %10s %8s %6s %8s %9s\n",
		"Query", "Frames", "Elapsed", "FPS", "Dropped", "Gaps", "Resyncs", "Degraded")
	for _, q := range qs {
		insts, err := vcd.BuildBatch(ds, q, 1, opt)
		if err != nil {
			fatal(err)
		}
		inst := insts[0]
		rep, err := vcd.RunOnlineOpts(context.Background(), sys, inst, vcd.OnlineOptions{
			Transport: transport,
			Faults:    plan.ForCamera(inst.Inputs[0].Env.Camera.ID),
			Timeout:   timeout,
			Retry:     stream.RetryPolicy{Seed: seed},
		})
		if unsupported := (*vdbms.ErrUnsupported)(nil); errors.As(err, &unsupported) {
			fmt.Printf("%-7s %10s\n", q, "unsupported")
			continue
		}
		if err != nil {
			fatal(err)
		}
		online.Queries[string(q)] = rep
		fmt.Printf("%-7s %10d %10s %10.1f %8d %6d %8d %9v\n",
			q, rep.Frames, rep.Elapsed.Round(1e6), rep.FPS,
			rep.FramesDropped, rep.Gaps, rep.Resyncs, rep.Degraded)
	}
	process := iv.End()
	if err := obs.WriteArtifact(vcd.Artifact{Process: &process, Online: online}); err != nil {
		fatal(err)
	}
}

func printReport(r *vcd.RunReport, validated bool) {
	fmt.Printf("\n%-7s %10s %10s %8s %10s", "Query", "Batch", "Elapsed", "Frames", "FPS")
	if validated {
		fmt.Printf(" %8s %10s %10s", "Valid", "PSNR(avg)", "Semantic")
	}
	fmt.Println()
	for _, qr := range r.Queries {
		if qr.Unsupported {
			fmt.Printf("%-7s %10s\n", qr.Query, "unsupported")
			continue
		}
		fmt.Printf("%-7s %6d/%-3d %10s %8d %10.1f",
			qr.Query, qr.Completed, qr.BatchSize, qr.Elapsed.Round(1e6), qr.Frames, qr.FPS())
		if validated {
			sem := "-"
			if qr.Validation.SemanticChecked > 0 {
				sem = fmt.Sprintf("%.0f%%", qr.Validation.SemanticPassRate()*100)
			}
			fmt.Printf(" %7.0f%% %10.1f %10s",
				qr.Validation.PassRate()*100, qr.Validation.PSNR.Mean, sem)
		}
		if qr.ResourceErrors > 0 {
			fmt.Printf("  [%d resource failure(s)]", qr.ResourceErrors)
		}
		if qr.BatchSplits > 0 {
			fmt.Printf("  [split into %d sub-batches]", qr.BatchSplits+1)
		}
		fmt.Println()
	}
	fmt.Printf("\ntotal: %s\n", r.Elapsed.Round(1e6))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "vcd: %v\n", err)
	os.Exit(1)
}
