package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/vcd"
)

// ExitDebugClose is the exit status when the program itself succeeded
// but the debug server failed mid-run (listener died, serve error) —
// distinct from 1 (run failure) and 2 (usage) so scrapers polling
// /debug endpoints learn their window had a hole.
const ExitDebugClose = 3

// Obs is the observability group.
type Obs struct {
	// MetricsJSON is -metrics-json: where WriteArtifact lands the
	// binary's telemetry artifact.
	MetricsJSON string
	// Report is -report: the binary prints the stage-breakdown table.
	Report bool

	debugAddr  string
	prog       string
	closeDebug func() error
}

// BindObs registers -metrics-json, -report and -debug-addr.
func BindObs(fs *flag.FlagSet, w Words) *Obs {
	o := &Obs{prog: prog(fs)}
	fs.StringVar(&o.MetricsJSON, "metrics-json", "", w.or("metrics-json",
		"write pipeline telemetry (stage histograms, gauges, cache stats) as JSON to this file"))
	fs.BoolVar(&o.Report, "report", false, w["report"])
	fs.StringVar(&o.debugAddr, "debug-addr", "", w.or("debug-addr",
		"serve live telemetry and pprof handlers on this address (e.g. localhost:6060)"))
	return o
}

// Start turns instrumentation on when any flag of the group asks for
// it, and brings up the -debug-addr server.
func (o *Obs) Start() error {
	if o.MetricsJSON != "" || o.Report || o.debugAddr != "" {
		metrics.SetEnabled(true)
	}
	if o.debugAddr == "" {
		return nil
	}
	addr, closeFn, err := metrics.ServeDebug(o.debugAddr)
	if err != nil {
		return fmt.Errorf("debug-addr: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: serving telemetry on http://%s/debug/metrics\n", o.prog, addr)
	o.closeDebug = closeFn
	return nil
}

// Exit shuts the debug server down and folds the outcome into the exit
// status: code unchanged when there was no server or it closed cleanly,
// ExitDebugClose when the program succeeded but the close surfaced a
// mid-run server failure.
func (o *Obs) Exit(code int) int {
	if o.closeDebug == nil {
		return code
	}
	if err := o.closeDebug(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: debug server: %v\n", o.prog, err)
		if code == 0 {
			return ExitDebugClose
		}
	}
	return code
}

// WriteArtifact lands the binary's telemetry artifact at -metrics-json,
// atomically, in the report files' byte form; without the flag it does
// nothing.
func (o *Obs) WriteArtifact(a vcd.Artifact) error {
	if o.MetricsJSON == "" {
		return nil
	}
	return vcd.WriteReportFile(o.MetricsJSON, a)
}
