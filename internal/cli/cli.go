// Package cli holds the flag groups the binaries share, each bound
// straight onto the struct the rest of the program already uses:
//
//	run            -queries -seed -instances -validate -query-workers -sequential → vcd.Options
//	shard          -shard-workers -shard-addrs                                    → shard.Options
//	shard worker   -shard-worker -shard-listen                                    → one signal-drained worker server
//	observability  -metrics-json -report -debug-addr                              → metrics on, debug server, exit status 3
//
// A binary registers the groups it exposes (README "Flags" has the
// group × binary table; TestFlagSurface pins every name, default and
// usage string), so one flag has one parser, one default and one range
// check however many binaries carry it.
package cli

import (
	"flag"
	"fmt"
	"path/filepath"

	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/vcd"
)

// Words is a binary's own wording of its flags. A group fixes a flag's
// name, type, default and effect; what the flag means to the user
// differs per binary (vcd's -seed samples parameters, vrbench's also
// seeds the dataset), so that sentence is the binary's to give. Flags
// every binary words alike fall back to the group's wording.
type Words map[string]string

func (w Words) or(name, shared string) string {
	if u, ok := w[name]; ok {
		return u
	}
	return shared
}

// prog names the program in diagnostics: the flag set's name (the
// binary's path for flag.CommandLine) without its directory.
func prog(fs *flag.FlagSet) string { return filepath.Base(fs.Name()) }

// UsageError reports a command-line mistake the flag package could not
// see (a missing required flag, an unknown query, a value out of
// range) the way it reports its own: message, usage, exit status 2.
func UsageError(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", prog(fs), err)
	fs.Usage()
	return 2
}

// Run is the run group: the election one benchmark run makes.
type Run struct {
	opt     vcd.Options
	queries string
}

// BindRun registers -seed, -validate, -query-workers and -sequential,
// plus -queries and -instances for a binary that words them (vrbench's
// experiments fix their own query lists and batch multiplier).
func BindRun(fs *flag.FlagSet, w Words) *Run {
	r := &Run{}
	if u, ok := w["queries"]; ok {
		fs.StringVar(&r.queries, "queries", "", u)
	}
	if u, ok := w["instances"]; ok {
		fs.IntVar(&r.opt.InstancesPerScale, "instances", 4, u)
	}
	fs.Uint64Var(&r.opt.Seed, "seed", 1, w["seed"])
	fs.BoolVar(&r.opt.Validate, "validate", false, w["validate"])
	fs.IntVar(&r.opt.Workers, "query-workers", 0, w.or("query-workers",
		"concurrent query instances per batch (0 = one per CPU, 1 = serial); results are identical at any count"))
	fs.BoolVar(&r.opt.Sequential, "sequential", false, w.or("sequential",
		"paper-faithful execution: one query instance at a time, no shared decode cache (overrides -query-workers)"))
	return r
}

// Options resolves the parsed flags into the run configuration:
// streaming results (a binary that persists them supplies the store
// and flips Mode itself) under the CLIs' Q4 cap. Its errors are usage
// errors.
func (r *Run) Options() (vcd.Options, error) {
	qs, err := queries.ParseList(r.queries)
	if err != nil {
		return vcd.Options{}, err
	}
	if err := shard.CheckLimits(r.opt.InstancesPerScale, r.opt.Workers, 0); err != nil {
		return vcd.Options{}, err
	}
	opt := r.opt
	opt.Queries = qs
	opt.Mode = vcd.StreamingMode
	opt.MaxUpsamplePixels = vcd.UpsampleCapCLI
	return opt, nil
}
