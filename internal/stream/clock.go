// Package stream implements the online (real-time) video delivery modes
// of the Visual Road driver: a camera's access units, sent forward-only
// at its capture rate as RTP packets (SendVideo, RTPSender) and
// reassembled by an RTPReceiver. One sender and one receiver serve both
// transports; only the connection differs: an in-memory net.Pipe
// (standing in for named pipes on a local file system) or a loopback
// TCP socket (standing in for RFC 3550 RTP). In online mode the VCD
// "blocks on attempts to read video data beyond this rate".
//
// Because online delivery crosses goroutines and real sockets, the
// package also carries the resilience vocabulary the driver builds on:
// context-interruptible clocks, deterministic fault injection
// (FaultPlan), gap reporting (StreamGapError), and bounded retry
// (Retry).
package stream

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time so throttling behavior is unit-testable without
// wall-clock sleeps.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// SleepCtx pauses like Sleep but unwinds early with ctx.Err() when
	// the context is cancelled before the duration elapses — the hook
	// that lets cancellation and deadlines interrupt pacing waits.
	SleepCtx(ctx context.Context, d time.Duration) error
}

// RealClock is the wall clock.
type RealClock struct{}

// Now returns the current wall time.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep pauses the goroutine.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// SleepCtx pauses the goroutine until d elapses or ctx is cancelled.
func (RealClock) SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FakeClock is a manually-advanced clock for tests. Sleep advances the
// clock immediately and records the requested durations.
type FakeClock struct {
	mu    sync.Mutex
	now   time.Time
	Slept []time.Duration
}

// NewFakeClock returns a fake clock starting at the given instant.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{now: start} }

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the clock by d without blocking and records d.
func (c *FakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.Slept = append(c.Slept, d)
}

// SleepCtx advances the clock like Sleep unless ctx is already
// cancelled, in which case the clock does not move and ctx.Err() is
// returned — mirroring a real sleeper that never started waiting.
func (c *FakeClock) SleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Sleep(d)
	return nil
}
