// Command vrserved runs the Visual Road benchmark as a service: a
// long-running daemon exposing an HTTP admin API for registering
// datasets and submitting query batches as jobs, executed through the
// shard coordinator against a pool of worker processes (or in-process
// pipe workers in single-node mode).
//
// Usage:
//
//	vrserved -data-dir DIR [-listen ADDR]
//	    [-shard-addrs HOST:PORT,... | -shard-workers N]
//	    [-tenant-limit N] [-queue-limit N] [-concurrency N]
//
// Example (two-worker pool):
//
//	vcd -shard-worker -shard-listen 127.0.0.1:7001 -data /tmp/vr &
//	vcd -shard-worker -shard-listen 127.0.0.1:7002 -data /tmp/vr &
//	vrserved -data-dir /tmp/vrserved -shard-addrs 127.0.0.1:7001,127.0.0.1:7002
//
//	curl -s localhost:8080/api/datasets -d '{"name":"vr","path":"/tmp/vr"}'
//	curl -s localhost:8080/api/jobs -d '{"dataset":"vr","queries":["Q1","Q5"]}'
//	curl -s localhost:8080/api/jobs/<id>/report
//
// The daemon shuts down on SIGINT/SIGTERM: the listener closes, running
// jobs finish (a second signal kills the process), and still-queued
// jobs surface as failed on the next boot.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.CommandLine
	listen := flag.String("listen", "127.0.0.1:8080", "admin API listen address")
	dataDir := flag.String("data-dir", "", "persistence root: job journal, reports, dataset registry (required)")
	shardFlags := cli.BindShard(fs, cli.Words{
		"shard-addrs":   "comma-separated addresses of shard workers (vcd -shard-worker); empty = in-process workers",
		"shard-workers": "in-process pipe workers per job in single-node mode",
	}, 1)
	tenantLimit := flag.Int("tenant-limit", 4, "max queued+running jobs per tenant (X-Tenant header); over-limit submissions get 429")
	queueLimit := flag.Int("queue-limit", 64, "bound on the job queue; submissions beyond it get 429")
	concurrency := flag.Int("concurrency", 1, "jobs executing at once")
	heartbeat := flag.Duration("heartbeat", 0, "shard-plane liveness window (0 = default)")
	flag.Parse()

	if *dataDir == "" {
		return cli.UsageError(fs, errors.New("-data-dir is required"))
	}
	copt, err := shardFlags.Options()
	if err != nil {
		return cli.UsageError(fs, err)
	}

	// A daemon is observable from birth: counters, the event journal,
	// and Prometheus exposition ride the admin listener under /debug/.
	metrics.SetEnabled(true)

	logger := log.New(os.Stderr, "vrserved: ", log.LstdFlags)
	addrs := shardFlags.Addrs()
	s, err := serve.New(serve.Options{
		DataDir:     *dataDir,
		WorkerAddrs: addrs,
		Shards:      copt.Shards,
		Heartbeat:   *heartbeat,
		MaxQueued:   *queueLimit,
		TenantLimit: *tenantLimit,
		Concurrency: *concurrency,
		Logf:        logger.Printf,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Print(err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	if len(addrs) > 0 {
		logger.Printf("serving on http://%s (worker pool: %s)", ln.Addr(), strings.Join(addrs, ", "))
	} else {
		logger.Printf("serving on http://%s (single-node, %d in-process workers)", ln.Addr(), copt.Shards)
	}

	// Run the executor until a signal arrives (or the HTTP server dies),
	// then drain: stop accepting HTTP, let running jobs settle (Run
	// waits for them on cancellation before returning).
	runc := make(chan error, 1)
	go func() { runc <- s.Run(ctx) }()
	status := 0
	var runErr error
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Print(err)
			status = 1
		}
		stop()
		runErr = <-runc
	case runErr = <-runc:
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(sctx)
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		logger.Print(runErr)
		status = 1
	}
	if status == 0 {
		logger.Print("shutdown complete")
	}
	return status
}
