package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/shard"
	"repro/internal/vfs"
)

// Shard is the shard group: the execution topology of a run.
type Shard struct {
	workers int
	addrs   string
}

// BindShard registers -shard-workers (defaulting to workers) and
// -shard-addrs.
func BindShard(fs *flag.FlagSet, w Words, workers int) *Shard {
	s := &Shard{}
	fs.IntVar(&s.workers, "shard-workers", workers, w["shard-workers"])
	fs.StringVar(&s.addrs, "shard-addrs", "", w["shard-addrs"])
	return s
}

// Addrs is the parsed -shard-addrs list.
func (s *Shard) Addrs() []string {
	var out []string
	for _, part := range strings.Split(s.addrs, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Options resolves the topology: remote workers behind -shard-addrs
// (one shard per address) override -shard-workers in-process pipe
// workers. An out-of-range worker count is a usage error.
func (s *Shard) Options() (shard.Options, error) {
	copt := shard.Options{Shards: s.workers}
	if addrs := s.Addrs(); len(addrs) > 0 {
		copt.Shards = len(addrs)
		copt.Transport = &shard.AddrTransport{Addrs: addrs}
	}
	return copt, shard.CheckLimits(0, 0, copt.Shards)
}

// Worker is the shard-worker group: the mode in which a binary serves
// coordinator connections instead of running anything itself.
type Worker struct {
	// Enabled is -shard-worker.
	Enabled bool
	listen  string
	prog    string
}

// BindWorker registers -shard-worker and -shard-listen.
func BindWorker(fs *flag.FlagSet, w Words) *Worker {
	k := &Worker{prog: prog(fs)}
	fs.BoolVar(&k.Enabled, "shard-worker", false, w["shard-worker"])
	fs.StringVar(&k.listen, "shard-listen", "127.0.0.1:0", w.or("shard-listen", "listen address in -shard-worker mode"))
	return k
}

// Run is worker mode's whole body and returns its exit status: serve
// coordinator connections until SIGINT/SIGTERM. The first signal drains
// gracefully — the listener closes, the in-flight conversation
// finishes — and a second signal kills the process outright. With a
// data directory the worker reads the dataset from it; otherwise each
// job's dataset spec says where to look (or how to regenerate).
func (k *Worker) Run(data string) int {
	ctx, stop := SignalContext(context.Background())
	defer stop()
	if err := k.serve(ctx, data); err != nil {
		fmt.Fprintf(os.Stderr, "%s: shard-worker: %v\n", k.prog, err)
		return 1
	}
	return 0
}

// serve runs one worker server until ctx ends; a cancellation (the
// signal path) is a clean exit.
func (k *Worker) serve(ctx context.Context, data string) error {
	wopt := shard.WorkerOptions{}
	if data != "" {
		store, err := vfs.NewLocal(data)
		if err != nil {
			return err
		}
		wopt.Store = store
	}
	srv, err := shard.ListenWorker(k.listen, wopt)
	if err != nil {
		return err
	}
	srv.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	fmt.Printf("%s: shard worker listening on %s\n", k.prog, srv.Addr())
	err = srv.Serve(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Printf("%s: shard worker stopped: signal received\n", k.prog)
		return nil
	}
	return err
}

// SignalContext returns a context cancelled on SIGINT/SIGTERM — the
// shutdown driver vrserved and the shard workers share. The first
// signal starts a graceful drain (callers stop accepting and let
// in-flight work finish); once it fires, the handler is unregistered,
// so a second signal falls back to the default action and kills a
// wedged process. The returned stop releases the handler early.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}
