package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// startWorkerServer binds a WorkerServer on a loopback port and runs
// Serve(ctx) in the background, returning the server and the channel
// Serve's result lands on.
func startWorkerServer(t *testing.T, ctx context.Context, hb time.Duration) (*WorkerServer, chan error) {
	t.Helper()
	srv, err := ListenWorker("127.0.0.1:0", WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Heartbeat = hb
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx) }()
	return srv, errc
}

func waitServe(t *testing.T, errc chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
		return nil
	}
}

// TestWorkerServerCloseStopsServe pins the pool-shutdown contract:
// Close() ends a Serve running under context.Background() and Serve
// reports nil — a deliberate stop, not an accept failure.
func TestWorkerServerCloseStopsServe(t *testing.T) {
	srv, errc := startWorkerServer(t, context.Background(), 0)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := waitServe(t, errc); err != nil {
		t.Fatalf("Serve after Close = %v, want nil", err)
	}
	// Repeated Close is an idempotent no-op.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestWorkerServerCancelReturnsCtxErr pins the signal-drain contract:
// cancelling Serve's context closes the listener and Serve returns the
// context's error, which the CLI maps to a clean exit.
func TestWorkerServerCancelReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, errc := startWorkerServer(t, ctx, 0)
	cancel()
	if err := waitServe(t, errc); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve after cancel = %v, want context.Canceled", err)
	}
}

// TestWorkerServerNoGoroutineLeak is the regression test for the
// ctx-watcher leak: every Serve call used to spawn a goroutine blocked
// on ctx.Done() forever when Serve exited via Close() under
// context.Background(). Several serve/close cycles must leave the
// goroutine count where it started.
func TestWorkerServerNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	const cycles = 8
	for i := 0; i < cycles; i++ {
		srv, errc := startWorkerServer(t, context.Background(), 0)
		srv.Close()
		if err := waitServe(t, errc); err != nil {
			t.Fatalf("cycle %d: Serve = %v", i, err)
		}
	}
	// Give exited goroutines a moment to be reaped; the leak is one
	// goroutine per cycle, well above the slack.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after %d serve/close cycles — watcher leak",
				before, runtime.NumGoroutine(), cycles)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// convFailures reads the process's failed-conversation count off the
// live telemetry.
func convFailures() int64 {
	var shard struct {
		N int64 `json:"conv_failures"`
	}
	json.Unmarshal(metrics.CaptureTelemetry().Shard, &shard) // no section yet = 0
	return shard.N
}

// TestWorkerServerHalfOpenCoordinator pins the first-frame deadline: a
// coordinator that connects but never sends the job manifest is
// dropped after the heartbeat window — counted and journaled as a
// failed conversation — and the serial accept loop moves on to the
// next connection instead of wedging forever.
func TestWorkerServerHalfOpenCoordinator(t *testing.T) {
	prev := metrics.Enabled()
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(prev)

	srv, errc := startWorkerServer(t, context.Background(), 100*time.Millisecond)
	defer srv.Close()
	base := convFailures()

	for i := 1; i <= 2; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Send nothing: the worker must abandon us on its own. Two
		// rounds prove the loop advanced past the first wedged peer.
		deadline := time.Now().Add(5 * time.Second)
		for convFailures() < base+int64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: conversation not dropped within deadline (ConvFailures=%d)",
					i, convFailures())
			}
			time.Sleep(10 * time.Millisecond)
		}
		conn.Close()
	}

	// The drop is journaled for /debug/events.
	found := false
	evs, _ := metrics.EventsSince(0)
	for _, e := range evs {
		if e.Kind == metrics.EventConvFailed && strings.Contains(e.Detail, "reading job") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no %s event journaled for the dropped conversation", metrics.EventConvFailed)
	}

	srv.Close()
	if err := waitServe(t, errc); err != nil {
		t.Fatalf("Serve = %v, want nil", err)
	}
}

// TestWorkerServerAcceptErrorStillReturns covers the non-Close accept
// failure path: closing the listener out from under Serve (not via
// Close) surfaces the accept error rather than hanging, and leaks no
// watcher.
func TestWorkerServerAcceptErrorStillReturns(t *testing.T) {
	srv, err := ListenWorker("127.0.0.1:0", WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(context.Background()) }()
	srv.ln.Close() // simulate the listener dying, not a deliberate Close
	if err := waitServe(t, errc); err == nil {
		t.Fatal("Serve = nil after listener failure, want error")
	} else if !strings.Contains(err.Error(), "use of closed") && !errors.Is(err, net.ErrClosed) && !os.IsTimeout(err) {
		t.Logf("accept error surfaced as: %v", err)
	}
}
