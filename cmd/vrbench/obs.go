package main

// Observability plumbing for the vrbench CLI: the -metrics-json
// artifact (process-level plus per-system/per-query telemetry gathered
// from comparison experiments), the -trace execution tracer, and the
// atomic -cpuprofile/-memprofile writers.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"

	"repro/internal/core"
	"repro/internal/metrics"
)

// cellTelemetryJSON is one (system, query) batch's telemetry in the
// -metrics-json artifact.
type cellTelemetryJSON struct {
	System    string             `json:"system"`
	Query     string             `json:"query"`
	Scale     int                `json:"scale"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Telemetry *metrics.Telemetry `json:"telemetry"`
}

// runTelemetryJSON is one system's whole-run roll-up.
type runTelemetryJSON struct {
	System       string             `json:"system"`
	Scale        int                `json:"scale"`
	DecodedCache json.RawMessage    `json:"decoded_cache"`
	Telemetry    *metrics.Telemetry `json:"telemetry"`
}

// metricsArtifact is the -metrics-json schema (see README
// "Observability"): process-level telemetry, per-run and per-query
// roll-ups, plus the invocation's distributed-trace summary and event
// journal.
type metricsArtifact struct {
	Process metrics.Telemetry    `json:"process"`
	Runs    []runTelemetryJSON   `json:"runs,omitempty"`
	Queries []cellTelemetryJSON  `json:"queries,omitempty"`
	Trace   *metrics.TraceReport `json:"trace,omitempty"`
	Events  []metrics.Event      `json:"events,omitempty"`
}

// collected accumulates per-batch and per-run telemetry from every
// comparison result printed during the invocation. Experiments run
// sequentially, so no locking is needed.
var collected struct {
	runs    []runTelemetryJSON
	queries []cellTelemetryJSON
}

// collectTelemetry records a comparison result's telemetry for the
// -metrics-json artifact.
func collectTelemetry(res *core.ComparisonResult) {
	if !metrics.Enabled() {
		return
	}
	for _, cell := range res.Cells {
		if cell.Telemetry == nil {
			continue
		}
		collected.queries = append(collected.queries, cellTelemetryJSON{
			System:    cell.System,
			Query:     string(cell.Query),
			Scale:     res.Config.Scale,
			ElapsedMS: cell.Elapsed.Seconds() * 1000,
			Telemetry: cell.Telemetry,
		})
	}
	for _, run := range res.Runs {
		collected.runs = append(collected.runs, runTelemetryJSON{
			System:       run.System,
			Scale:        res.Config.Scale,
			DecodedCache: run.Cache.Report(),
			Telemetry:    run.Telemetry,
		})
	}
}

// newMetricsArtifact gathers the invocation's -metrics-json content.
func newMetricsArtifact(base metrics.Snapshot, traceBase, eventBase uint64) metricsArtifact {
	art := metricsArtifact{
		Process: metrics.Capture().Sub(base),
		Runs:    collected.runs,
		Queries: collected.queries,
		Trace:   metrics.SummarizeTraces(metrics.TraceSpansSince(traceBase)),
	}
	art.Events, _ = metrics.EventsSince(eventBase)
	return art
}

// startTrace begins a Go execution trace into path; the returned stop
// flushes, closes, and reports any error.
func startTrace(path string) (func(), error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if err := rtrace.Start(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return func() {
		rtrace.Stop()
		finishProfile("trace", f, tmp, path)
	}, nil
}

// startCPUProfile begins CPU profiling into path via a temp file; the
// returned stop flushes the profile, reports close errors, and renames
// the finished file into place.
func startCPUProfile(path string) (func(), error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		finishProfile("cpuprofile", f, tmp, path)
	}, nil
}

// writeHeapProfile snapshots the heap into path atomically, reporting
// write and close errors instead of swallowing them.
func writeHeapProfile(path string) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vrbench: memprofile: %v\n", err)
		return
	}
	runtime.GC() // settle live-heap numbers before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "vrbench: memprofile: %v\n", err)
		f.Close()
		os.Remove(tmp)
		return
	}
	finishProfile("memprofile", f, tmp, path)
}

// finishProfile closes a finished profile temp file — reporting, not
// ignoring, the close error (a full disk surfaces here) — and renames
// it to its final path only on success.
func finishProfile(kind string, f *os.File, tmp, path string) {
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "vrbench: %s: close: %v\n", kind, err)
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		fmt.Fprintf(os.Stderr, "vrbench: %s: %v\n", kind, err)
		os.Remove(tmp)
	}
}
