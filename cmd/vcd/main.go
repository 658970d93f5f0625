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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/vcd"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
)

func main() { os.Exit(run()) }

// exitDebugClose is the exit status when the benchmark itself succeeded
// but the debug server failed mid-run (listener died, serve error) —
// distinct from 1 (run failure) and 2 (usage) so scrapers polling
// /debug endpoints learn their window had a hole.
const exitDebugClose = 3

// closeDebug shuts the debug server down and maps the outcome to an
// exit status contribution: 0 when there was no server or it closed
// cleanly, exitDebugClose when the close surfaced a mid-run failure.
func closeDebug(closeFn func() error) int {
	if closeFn == nil {
		return 0
	}
	if err := closeFn(); err != nil {
		fmt.Fprintf(os.Stderr, "vcd: debug server: %v\n", err)
		return exitDebugClose
	}
	return 0
}

func run() int {
	data := flag.String("data", "", "dataset directory written by vcg (required)")
	system := flag.String("system", "lightdblike", "system under test: scannerlike, lightdblike, noscopelike")
	queryList := flag.String("queries", "", "comma-separated query list (e.g. Q1,Q2a,Q7); default all")
	mode := flag.String("mode", "streaming", "result mode: write or streaming")
	out := flag.String("out", "", "result directory (write mode)")
	seed := flag.Uint64("seed", 1, "parameter sampling seed")
	validate := flag.Bool("validate", false, "validate results against the reference implementation / scene geometry")
	instances := flag.Int("instances", 4, "query instances per unit of scale (the paper uses 4)")
	queryWorkers := flag.Int("query-workers", 0, "concurrent query instances per batch (0 = one per CPU, 1 = serial); results are identical at any count")
	sequential := flag.Bool("sequential", false, "paper-faithful execution: one query instance at a time, no shared decode cache (overrides -query-workers)")
	online := flag.Bool("online", false, "online mode: deliver inputs as live-paced streams (Q1/Q2a/Q2c/Q5)")
	transport := flag.String("transport", "pipe", "online transport: pipe or rtp")
	onlineFaults := flag.String("online-faults", "", "online fault spec, e.g. 0.01 or drop=0.01,reorder=0.005,cut=12,dial=2")
	onlineSeed := flag.Uint64("online-seed", 1, "seed keying the deterministic fault schedule")
	onlineTimeout := flag.Duration("online-timeout", 0, "per-stream deadline for online sessions (0 = none)")
	shardWorkers := flag.Int("shard-workers", 0, "run the batch through the shard plane with N in-process workers (0/1 = single-process); results are identical at any count")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated addresses of remote shard workers (vcd -shard-worker); overrides -shard-workers")
	shardWorker := flag.Bool("shard-worker", false, "run as a shard worker: serve coordinator connections instead of executing a benchmark")
	shardListen := flag.String("shard-listen", "127.0.0.1:0", "listen address in -shard-worker mode")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (for downstream tooling)")
	metricsJSON := flag.String("metrics-json", "", "write pipeline telemetry (stage histograms, gauges, cache stats) as JSON to this file")
	reportFlag := flag.Bool("report", false, "print the stage-breakdown telemetry table after the run")
	debugAddr := flag.String("debug-addr", "", "serve live telemetry and pprof handlers on this address (e.g. localhost:6060)")
	flag.Parse()

	if *metricsJSON != "" || *reportFlag || *debugAddr != "" {
		metrics.SetEnabled(true)
	}
	var debugClose func() error
	if *debugAddr != "" {
		addr, closeFn, err := metrics.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vcd: serving telemetry on http://%s/debug/metrics\n", addr)
		debugClose = closeFn
	}

	if *shardWorker {
		runShardWorker(*shardListen, *data)
		return closeDebug(debugClose)
	}
	if *data == "" {
		fmt.Fprintln(os.Stderr, "vcd: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	store, err := vfs.NewLocal(*data)
	if err != nil {
		fatal(err)
	}
	ds, err := vcd.LoadDataset(store, detect.ProfileSynthetic)
	if err != nil {
		fatal(err)
	}
	sys, err := systemByName(*system)
	if err != nil {
		fatal(err)
	}
	qs, err := queries.ParseList(*queryList)
	if err != nil {
		fatal(err)
	}
	opt := vcd.Options{
		Queries:           qs,
		InstancesPerScale: *instances,
		Seed:              *seed,
		Validate:          *validate,
		MaxUpsamplePixels: 1 << 24,
		Workers:           *queryWorkers,
		Sequential:        *sequential,
	}
	switch *mode {
	case "write":
		if *out == "" {
			fatal(fmt.Errorf("vcd: write mode requires -out"))
		}
		rs, err := vfs.NewLocal(*out)
		if err != nil {
			fatal(err)
		}
		opt.Mode = vcd.WriteMode
		opt.ResultStore = rs
	case "streaming":
		opt.Mode = vcd.StreamingMode
	default:
		fatal(fmt.Errorf("vcd: unknown mode %q", *mode))
	}

	fmt.Printf("vcd: benchmarking %s on %s (L=%d, %dx%d, %.0fs)\n",
		sys.Name(), *data, ds.Manifest.Scale, ds.Manifest.Width, ds.Manifest.Height, ds.Manifest.Duration)
	if *online {
		runOnline(ds, opt, onlineConfig{
			transport:   *transport,
			faultSpec:   *onlineFaults,
			seed:        *onlineSeed,
			timeout:     *onlineTimeout,
			metricsJSON: *metricsJSON,
		})
		return closeDebug(debugClose)
	}
	var report *vcd.RunReport
	if *shardWorkers > 1 || *shardAddrs != "" {
		copt := shard.Options{Shards: *shardWorkers}
		if *shardAddrs != "" {
			addrs := splitAddrs(*shardAddrs)
			copt.Shards = len(addrs)
			copt.Transport = &shard.AddrTransport{Addrs: addrs}
		}
		var counters *shard.Counters
		report, counters, err = shard.Run(context.Background(), shard.Plan{
			Dataset: shard.DatasetSpec{Path: *data},
			Store:   store,
			System:  shard.SystemSpec{Name: *system},
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
	if *metricsJSON != "" {
		if err := writeTelemetryArtifact(*metricsJSON, report); err != nil {
			fatal(err)
		}
	}
	if *reportFlag && report.Telemetry != nil {
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(vcd.Summarize(report)); err != nil {
			fatal(err)
		}
		return closeDebug(debugClose)
	}
	printReport(report, *validate)
	return closeDebug(debugClose)
}

// telemetryArtifact is the -metrics-json schema: the run's telemetry
// plus each query batch's interval record, the distributed-trace
// summary (per-instance timelines, straggler attribution), and the
// event journal covering the run.
type telemetryArtifact struct {
	System       string                        `json:"system"`
	Scale        int                           `json:"scale"`
	DecodedCache metrics.CacheTelemetry        `json:"decoded_cache"`
	Run          *metrics.Telemetry            `json:"run"`
	Queries      map[string]*metrics.Telemetry `json:"queries"`
	Trace        *metrics.TraceReport          `json:"trace,omitempty"`
	Events       []metrics.Event               `json:"events,omitempty"`
}

// writeTelemetryArtifact serializes the run's telemetry atomically
// (temp file + rename, so a crash never leaves a truncated artifact).
func writeTelemetryArtifact(path string, r *vcd.RunReport) error {
	art := telemetryArtifact{
		System:       r.System,
		Scale:        r.Scale,
		DecodedCache: r.DecodedCache.Report(),
		Run:          r.Telemetry,
		Queries:      map[string]*metrics.Telemetry{},
		Trace:        r.Trace,
		Events:       r.Events,
	}
	for i := range r.Queries {
		if qr := &r.Queries[i]; qr.Telemetry != nil {
			art.Queries[string(qr.Query)] = qr.Telemetry
		}
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// onlineConfig carries the online-mode CLI knobs.
type onlineConfig struct {
	transport   string
	faultSpec   string
	seed        uint64
	timeout     time.Duration
	metricsJSON string
}

// onlineArtifact is the -metrics-json schema for online mode: per-query
// degradation reports plus the run's telemetry (including the online
// counter block).
type onlineArtifact struct {
	Transport string                       `json:"transport"`
	FaultSpec string                       `json:"fault_spec,omitempty"`
	Seed      uint64                       `json:"seed"`
	Queries   map[string]*vcd.OnlineReport `json:"queries"`
	Telemetry *metrics.Telemetry           `json:"telemetry,omitempty"`
}

// runOnline executes the online-capable queries against live-paced
// streams — optionally degraded by a seeded fault plan — and reports
// achieved frames per second plus degradation accounting, as the paper
// requires for online-mode results.
func runOnline(ds *vcd.Dataset, opt vcd.Options, cfg onlineConfig) {
	var transport vcd.OnlineTransport
	switch cfg.transport {
	case "pipe":
		transport = vcd.TransportPipe
	case "rtp":
		transport = vcd.TransportRTP
	default:
		fatal(fmt.Errorf("vcd: unknown transport %q", cfg.transport))
	}
	plan, err := stream.ParseFaultSpec(cfg.faultSpec, cfg.seed, "")
	if err != nil {
		fatal(err)
	}
	qs := opt.Queries
	if len(qs) == 0 {
		qs = []queries.QueryID{queries.Q1, queries.Q2a, queries.Q2c, queries.Q5}
	}
	var base metrics.Snapshot
	if metrics.Enabled() {
		base = metrics.Capture()
	}
	art := onlineArtifact{Transport: cfg.transport, FaultSpec: cfg.faultSpec, Seed: cfg.seed,
		Queries: map[string]*vcd.OnlineReport{}}
	fmt.Printf("\n%-7s %10s %10s %10s %8s %6s %8s %9s\n",
		"Query", "Frames", "Elapsed", "FPS", "Dropped", "Gaps", "Resyncs", "Degraded")
	for _, q := range qs {
		insts, err := vcd.BuildBatch(ds, q, 1, opt)
		if err != nil {
			fatal(err)
		}
		inst := insts[0]
		rep, err := vcd.RunOnlineOpts(context.Background(), inst, vcd.OnlineOptions{
			Transport: transport,
			Faults:    plan.ForCamera(inst.Inputs[0].Env.Camera.ID),
			Timeout:   cfg.timeout,
			Retry:     stream.RetryPolicy{Seed: cfg.seed},
		})
		if errors.Is(err, vcd.ErrOnlineUnsupported) {
			fmt.Printf("%-7s %10s\n", q, "unsupported")
			continue
		}
		if err != nil {
			fatal(err)
		}
		art.Queries[string(q)] = rep
		fmt.Printf("%-7s %10d %10s %10.1f %8d %6d %8d %9v\n",
			q, rep.Frames, rep.Elapsed.Round(1e6), rep.FPS,
			rep.FramesDropped, rep.Gaps, rep.Resyncs, rep.Degraded)
	}
	if cfg.metricsJSON != "" {
		t := metrics.Capture().Sub(base)
		art.Telemetry = &t
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fatal(err)
		}
		tmp := cfg.metricsJSON + ".tmp"
		if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, cfg.metricsJSON); err != nil {
			os.Remove(tmp)
			fatal(err)
		}
	}
}

// runShardWorker serves coordinator connections until SIGINT/SIGTERM:
// the worker half of multi-process sharded execution. The first signal
// drains gracefully — the listener closes, the in-flight conversation
// finishes — and a second signal kills the process outright.
func runShardWorker(listen, data string) {
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	if err := shardWorkerServe(ctx, listen, data); err != nil {
		fatal(err)
	}
}

// shardWorkerServe runs one worker server until ctx ends. With -data
// the worker reads the dataset from the shared directory; otherwise
// the job's dataset spec tells it where to look (or how to
// regenerate). A ctx cancellation (the signal path) is a clean exit.
func shardWorkerServe(ctx context.Context, listen, data string) error {
	wopt := shard.WorkerOptions{}
	if data != "" {
		store, err := vfs.NewLocal(data)
		if err != nil {
			return err
		}
		wopt.Store = store
	}
	srv, err := shard.ListenWorker(listen, wopt)
	if err != nil {
		return err
	}
	srv.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	fmt.Printf("vcd: shard worker listening on %s\n", srv.Addr())
	err = srv.Serve(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Println("vcd: shard worker stopped: signal received")
		return nil
	}
	return err
}

// splitAddrs parses the -shard-addrs list.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func systemByName(name string) (vdbms.System, error) {
	switch name {
	case "scannerlike":
		return scannerlike.New(scannerlike.Options{}), nil
	case "lightdblike":
		return lightdblike.New(lightdblike.Options{}), nil
	case "noscopelike":
		return noscopelike.NewDefault(), nil
	}
	return nil, fmt.Errorf("vcd: unknown system %q", name)
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
