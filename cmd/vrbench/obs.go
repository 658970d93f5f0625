package main

// Observability plumbing for the vrbench CLI: the -trace execution
// tracer and the atomic -cpuprofile/-memprofile writers.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

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
