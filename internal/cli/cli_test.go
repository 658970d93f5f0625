package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/vcd"
)

// binaries are the commands whose flag surface is pinned; the first
// three carry shared groups and a README table column.
var binaries = []string{"vcd", "vrbench", "vrserved", "vcg"}

// built is the directory every binary is built into, once per test
// binary (TestMain removes it).
var built struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// binDir builds every binary and returns where they are.
func binDir(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	built.once.Do(func() {
		if built.dir, built.err = os.MkdirTemp("", "cli-bin-"); built.err != nil {
			return
		}
		build := exec.Command("go", "build", "-o", built.dir+string(filepath.Separator), "repro/cmd/...")
		if out, err := build.CombinedOutput(); err != nil {
			built.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.dir
}

// helpOutput returns each binary's -h text without its first line
// (which names the binary's path).
func helpOutput(t *testing.T) map[string]string {
	t.Helper()
	dir := binDir(t)
	help := map[string]string{}
	for _, bin := range binaries {
		out, err := exec.Command(filepath.Join(dir, bin), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", bin, err, out)
		}
		_, rest, _ := strings.Cut(string(out), "\n")
		help[bin] = rest
	}
	return help
}

// flagNames lists the flags a -h text defines.
func flagNames(help string) []string {
	var out []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(help, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestFlagSurface pins every binary's whole CLI surface — each flag's
// name, type, default and usage string, exactly as -h prints them —
// against the goldens captured before the flags moved into this
// package's groups (testdata/*.flags; -update rewrites them), so
// sharing a group provably adds, drops, renames and re-defaults
// nothing. It then holds README's
// "Flags" table to the same surface: every flag of a shared group has
// a row, and a row ticks a binary exactly when that binary defines the
// flag.
func TestFlagSurface(t *testing.T) {
	help := helpOutput(t)
	for _, bin := range binaries {
		golden := filepath.Join("testdata", bin+".flags")
		if *updateGolden {
			if err := os.WriteFile(golden, []byte(help[bin]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if help[bin] != string(want) {
			t.Errorf("%s -h changed:\n--- got\n%s--- want\n%s", bin, help[bin], want)
		}
	}

	// Every flag the groups can register, from the groups themselves.
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	w := Words{"queries": "", "instances": ""}
	BindRun(fs, w)
	BindShard(fs, w, 0)
	BindWorker(fs, w)
	BindObs(fs, w)
	grouped := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { grouped[f.Name] = true })

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| [a-z ]+ \\| `-([a-z-]+)` \\|([^|]*)\\|([^|]*)\\|([^|]*)\\|")
	rows := row.FindAllStringSubmatch(string(readme), -1)
	if len(rows) != len(grouped) {
		t.Errorf("README flags table has %d rows, the groups define %d flags", len(rows), len(grouped))
	}
	for _, m := range rows {
		name := m[1]
		if !grouped[name] {
			t.Errorf("README flags table lists -%s, which no group defines", name)
		}
		for i, bin := range binaries[:3] {
			ticked := strings.TrimSpace(m[2+i]) != ""
			defined := false
			for _, f := range flagNames(help[bin]) {
				defined = defined || f == name
			}
			if ticked != defined {
				t.Errorf("README flags table: -%s on %s ticked=%v, but the binary defines it=%v", name, bin, ticked, defined)
			}
		}
	}
}

// parse binds the run and shard groups the way vcd does and parses
// args.
func parse(t *testing.T, args ...string) (*Run, *Shard) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	w := Words{"queries": "", "instances": ""}
	r, s := BindRun(fs, w), BindShard(fs, w, 0)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return r, s
}

// TestBindRun: the flags land on the vcd.Options fields they name, with
// the CLI constants filled in and defaults left to the driver.
func TestBindRun(t *testing.T) {
	r, _ := parse(t, "-queries", "Q1,q2a", "-seed", "42", "-instances", "2", "-validate", "-query-workers", "3", "-sequential")
	got, err := r.Options()
	if err != nil {
		t.Fatal(err)
	}
	want := vcd.Options{
		Queries:           []queries.QueryID{queries.Q1, queries.Q2a},
		InstancesPerScale: 2, Seed: 42, Validate: true, Workers: 3, Sequential: true,
		Mode: vcd.StreamingMode, MaxUpsamplePixels: vcd.UpsampleCapCLI,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bound options = %+v, want %+v", got, want)
	}

	r, _ = parse(t)
	got, err = r.Options()
	if err != nil {
		t.Fatal(err)
	}
	if got.Queries != nil || got.InstancesPerScale != 4 || got.Seed != 1 || got.Validate || got.Workers != 0 || got.Sequential {
		t.Errorf("default options = %+v", got)
	}
}

// TestBindUsageErrors: what the flag package cannot see — an unknown
// query, a value past shard.CheckLimits — fails at Options, while the
// limits themselves are accepted.
func TestBindUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-queries", "Q99"},
		{"-instances", "1000000000"},
		{"-query-workers", "1000000"},
	} {
		r, _ := parse(t, args...)
		if _, err := r.Options(); err == nil {
			t.Errorf("%v: bound without error", args)
		}
	}
	_, s := parse(t, "-shard-workers", "100000")
	if _, err := s.Options(); err == nil {
		t.Error("-shard-workers 100000 bound without error")
	}
	r, s := parse(t, "-instances", "1024", "-query-workers", "1024", "-shard-workers", "64")
	if _, err := r.Options(); err != nil {
		t.Errorf("run limits rejected: %v", err)
	}
	if _, err := s.Options(); err != nil {
		t.Errorf("shard limit rejected: %v", err)
	}
}

// TestBindShard: -shard-addrs dials one shard per address and overrides
// -shard-workers; alone, -shard-workers counts in-process workers, and
// 0/1 stays single-process.
func TestBindShard(t *testing.T) {
	_, s := parse(t, "-shard-workers", "4", "-shard-addrs", " 127.0.0.1:7001, ,127.0.0.1:7002")
	copt, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	at, ok := copt.Transport.(*shard.AddrTransport)
	if !ok || copt.Shards != 2 || !reflect.DeepEqual(at.Addrs, []string{"127.0.0.1:7001", "127.0.0.1:7002"}) || !copt.Sharded() {
		t.Errorf("addr topology = %+v", copt)
	}
	_, s = parse(t, "-shard-workers", "4")
	if copt, _ = s.Options(); copt.Shards != 4 || copt.Transport != nil || !copt.Sharded() {
		t.Errorf("pipe topology = %+v", copt)
	}
	for _, n := range []string{"0", "1"} {
		_, s = parse(t, "-shard-workers", n)
		if copt, _ = s.Options(); copt.Sharded() {
			t.Errorf("-shard-workers %s selects the shard plane", n)
		}
	}
}

// TestUsageError: binder errors exit like the flag package's own.
func TestUsageError(t *testing.T) {
	fs := flag.NewFlagSet("/usr/local/bin/vcd", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Bool("json", false, "emit JSON")
	if code := UsageError(fs, errors.New("-data is required")); code != 2 {
		t.Errorf("usage error exits %d, want 2", code)
	}
	if out := buf.String(); !strings.HasPrefix(out, "vcd: -data is required\n") || !strings.Contains(out, "-json") {
		t.Errorf("usage error output = %q", out)
	}
}

// TestOnlineRefusesShardFlags: online mode runs in process only, so vcd
// refuses -online beside any shard flag as a usage error instead of
// ignoring the flag.
func TestOnlineRefusesShardFlags(t *testing.T) {
	vcd := filepath.Join(binDir(t), "vcd")
	for _, flag := range [][]string{{"-shard-workers", "2"}, {"-shard-addrs", "127.0.0.1:1"}, {"-shard-worker"}} {
		cmd := exec.Command(vcd, append([]string{"-online"}, flag...)...)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 || !strings.Contains(string(out), "-online runs in process: it takes no -shard-workers, -shard-addrs or -shard-worker") {
			t.Errorf("vcd -online %v: exit %d, %v\n%s", flag, code, err, out)
		}
	}
}

// TestCloseDebugExitPath pins the exit-status contract for the debug
// server: no server and a clean shutdown leave the status alone, a
// listener that died mid-run turns success into the distinct
// ExitDebugClose instead of being printed and discarded, and a failed
// run keeps its own status. (The closer's own failure detection is
// covered in internal/metrics; this pins the mapping to exit codes.)
func TestCloseDebugExitPath(t *testing.T) {
	died := func() error { return errors.New("listener died") }
	for _, c := range []struct {
		name    string
		closeFn func() error
		code    int
		want    int
	}{
		{"no server", nil, 0, 0},
		{"clean close", func() error { return nil }, 0, 0},
		{"died, run ok", died, 0, ExitDebugClose},
		{"died, run failed", died, 1, 1},
	} {
		if got := (&Obs{closeDebug: c.closeFn}).Exit(c.code); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
	// The real closer from a healthy server maps to a clean exit.
	defer metrics.SetEnabled(metrics.Enabled())
	o := &Obs{debugAddr: "127.0.0.1:0"}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if !metrics.Enabled() {
		t.Error("-debug-addr did not enable instrumentation")
	}
	if got := o.Exit(0); got != 0 {
		t.Errorf("healthy server close = %d, want 0", got)
	}
}

// TestWriteArtifact: -metrics-json lands indented JSON atomically (no
// temp file left behind), and no flag means no file.
func TestWriteArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	art := vcd.Artifact{Process: &metrics.Record{}}
	if err := (&Obs{}).WriteArtifact(art); err != nil {
		t.Fatal(err)
	}
	if err := (&Obs{MetricsJSON: path}).WriteArtifact(art); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if want := "{\n  \"process\": {}\n}\n"; err != nil || string(data) != want {
		t.Errorf("artifact = %q, %v", data, err)
	}
	names, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*"))
	if len(names) != 1 {
		t.Errorf("artifact directory holds %v, want only the artifact", names)
	}
}

// TestShardWorkerSignalShutdown pins the worker mode every binary
// shares: a -shard-worker process drains cleanly on SIGTERM instead of
// ignoring it. The signal context is registered before the kill, so
// the signal lands on the handler rather than the default action
// (which would kill this test binary).
func TestShardWorkerSignalShutdown(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	defer stop()

	k := &Worker{listen: "127.0.0.1:0", prog: "test"}
	errc := make(chan error, 1)
	go func() { errc <- k.serve(ctx, "") }()
	// Let the worker reach its accept loop before signalling.
	time.Sleep(100 * time.Millisecond)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("worker serve after SIGTERM = %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not shut down on SIGTERM")
	}
}
