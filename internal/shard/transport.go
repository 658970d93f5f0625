package shard

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// Transport produces one connection per worker index. The coordinator
// is transport-agnostic: the same protocol runs over in-process pipes
// (tests, the 1-CPU container, `-shard-workers N`) and TCP connections
// to worker processes (`-shard-addrs`).
type Transport interface {
	// Connect returns the coordinator's end of a connection to worker i.
	Connect(ctx context.Context, i int) (net.Conn, error)
	// Close releases transport-held resources (spawned in-process
	// workers wind down when their connections close).
	Close() error
}

// PipeTransport runs each worker as a goroutine in this process behind
// a synchronous net.Pipe — the full wire path (framing, heartbeats,
// failure detection) without sockets, so the protocol is exercised
// end-to-end even on a single CPU. An optional FaultPlan kills worker
// connections deterministically: worker i uses the plan scoped to
// "worker-i", and its CutAtPacket'th frame write severs the pipe
// mid-frame, exactly like PR 5's RTP cut fault.
type PipeTransport struct {
	Worker WorkerOptions
	Faults *stream.FaultPlan
	// FaultWorkers limits the plan to specific worker indices; nil
	// applies it to every worker. A cut plan needs a survivor to retry
	// on, so killed-worker tests name their victims here.
	FaultWorkers []int

	mu   sync.Mutex
	done []chan struct{}
}

func (t *PipeTransport) faulted(i int) bool {
	if t.Faults == nil {
		return false
	}
	if len(t.FaultWorkers) == 0 {
		return true
	}
	for _, w := range t.FaultWorkers {
		if w == i {
			return true
		}
	}
	return false
}

// Connect spawns worker i and returns the coordinator's end.
func (t *PipeTransport) Connect(ctx context.Context, i int) (net.Conn, error) {
	coord, work := net.Pipe()
	var wc net.Conn = work
	if t.faulted(i) {
		plan := t.Faults.ForCamera(fmt.Sprintf("worker-%d", i))
		if plan.Active() {
			wc = &cutConn{Conn: work, plan: plan}
		}
	}
	wopt := t.Worker
	wopt.InProcess = true
	done := make(chan struct{})
	t.mu.Lock()
	t.done = append(t.done, done)
	t.mu.Unlock()
	go func() {
		defer close(done)
		ServeConn(ctx, wc, wopt)
	}()
	return coord, nil
}

// Close waits for spawned workers to exit (their connections are closed
// by the coordinator first).
func (t *PipeTransport) Close() error {
	t.mu.Lock()
	done := t.done
	t.done = nil
	t.mu.Unlock()
	for _, ch := range done {
		<-ch
	}
	return nil
}

// cutConn severs the connection on the fault plan's scheduled write:
// a byte of the doomed frame escapes first, so the peer observes a
// truncation (a crash mid-send), never a clean shutdown.
type cutConn struct {
	net.Conn
	plan *stream.FaultPlan
	n    int
}

func (c *cutConn) Write(p []byte) (int, error) {
	i := c.n
	c.n++
	if c.plan.CutPacket(i) {
		if len(p) > 0 {
			c.Conn.Write(p[:1])
		}
		c.Conn.Close()
		return 0, stream.ErrFaultCut
	}
	return c.Conn.Write(p)
}

// AddrTransport dials worker processes listening on fixed addresses
// (vrbench/vcd -shard-worker -shard-listen). Dials go through
// stream.Retry under the transport's Retry policy (the zero value is
// the default policy); DialRetries counts the extra attempts for
// degradation accounting.
type AddrTransport struct {
	Addrs []string
	Retry stream.RetryPolicy
	Clock stream.Clock

	mu          sync.Mutex
	dialRetries int64
}

// Connect dials worker i's address.
func (t *AddrTransport) Connect(ctx context.Context, i int) (net.Conn, error) {
	if len(t.Addrs) == 0 {
		return nil, fmt.Errorf("shard: no worker addresses")
	}
	addr := t.Addrs[i%len(t.Addrs)]
	clock := t.Clock
	if clock == nil {
		clock = stream.RealClock{}
	}
	var conn net.Conn
	retries, err := stream.Retry(ctx, clock, t.Retry, func() error {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return err
		}
		conn = c
		return nil
	})
	t.mu.Lock()
	t.dialRetries += int64(retries)
	t.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("shard: dialing worker %d at %s: %w", i, addr, err)
	}
	return conn, nil
}

// DialRetries reports the dial attempts beyond the first across all
// connections.
func (t *AddrTransport) DialRetries() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dialRetries
}

// Close is a no-op: worker processes outlive individual runs.
func (t *AddrTransport) Close() error { return nil }

// WorkerServer accepts coordinator connections and serves each — the
// body of the -shard-worker CLI mode and the execution plane vrserved
// drives. The pool of worker servers outlives individual jobs: each
// coordinator conversation owns the worker for its duration, and the
// accept loop survives failed conversations (they are counted and
// journaled, not fatal), so the same processes serve job after job.
type WorkerServer struct {
	// Heartbeat bounds the wait for the first frame (the job manifest)
	// of each conversation, mirroring the coordinator's liveness window:
	// a coordinator that connects and never sends a job is dropped
	// instead of wedging the serial accept loop forever. Zero selects
	// DefaultHeartbeat. Set before Serve.
	Heartbeat time.Duration
	// Logf, when set, receives one line per failed conversation (the
	// accept loop keeps going either way). Set before Serve.
	Logf func(format string, args ...any)

	ln     net.Listener
	wopt   WorkerOptions
	closed atomic.Bool
	once   sync.Once
	cerr   error
}

// ListenWorker binds addr (e.g. "127.0.0.1:0") for worker service.
func ListenWorker(addr string, wopt WorkerOptions) (*WorkerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &WorkerServer{ln: ln, wopt: wopt}, nil
}

// Addr returns the bound address.
func (s *WorkerServer) Addr() string { return s.ln.Addr().String() }

// Serve accepts and serves coordinator connections until the listener
// closes or ctx ends. Connections are served one at a time: a worker
// process hosts one engine and one decoded cache, and jobs own both.
//
// Cancelling ctx drains gracefully: the listener closes immediately
// (no new conversations), the in-flight conversation — deliberately
// detached from ctx — runs to completion, and Serve returns ctx.Err().
// A conversation that ends in an error is logged (Logf), counted
// (vr_shard_conv_failures_total), and journaled (EventConvFailed); the loop
// accepts the next coordinator. Close() stops the loop cleanly: Serve
// returns nil rather than the listener's accept error.
func (s *WorkerServer) Serve(ctx context.Context) error {
	// The watcher is tied to this Serve call: it exits when Serve
	// returns (done) as well as when ctx fires, so a Serve ended by
	// Close() or an accept error under context.Background() leaks
	// nothing.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			s.Close()
		case <-done:
		}
	}()
	wopt := s.wopt
	if wopt.FirstFrameTimeout <= 0 {
		wopt.FirstFrameTimeout = s.Heartbeat
		if wopt.FirstFrameTimeout <= 0 {
			wopt.FirstFrameTimeout = DefaultHeartbeat
		}
	}
	// In-flight conversations finish even after a shutdown signal: the
	// drain closes the listener, not the current job's connection.
	convCtx := context.WithoutCancel(ctx)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if err := ServeConn(convCtx, conn, wopt); err != nil {
			metrics.Add(metrics.ShardConvFailures, 1)
			metrics.RecordEvent(metrics.Event{
				Kind: metrics.EventConvFailed, Shard: -1, Detail: err.Error(),
			})
			if s.Logf != nil {
				s.Logf("shard: worker conversation failed: %v", err)
			}
		}
	}
}

// Close stops accepting; repeated calls are no-ops returning the first
// outcome.
func (s *WorkerServer) Close() error {
	s.once.Do(func() {
		s.closed.Store(true)
		s.cerr = s.ln.Close()
	})
	return s.cerr
}
