package stream

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/codec"
)

// Pipe is the in-process stand-in for the VCD's named-pipe transport:
// a bounded, forward-only channel of encoded access units. The producer
// paces writes at the capture rate; the consumer blocks when reading
// ahead of production — the same backpressure contract as a named pipe
// on a local filesystem.
//
// Shutdown is two-sided, like a real pipe: CloseWrite (producer done)
// lets the consumer drain buffered units then read io.EOF; CloseRead
// (consumer hangs up) unblocks a producer stuck in WriteCtx with
// io.ErrClosedPipe. The data channel itself is never closed, so a
// concurrent WriteCtx can never panic with send-on-closed-channel.
type Pipe struct {
	ch    chan codec.EncodedFrame
	wonce sync.Once
	ronce sync.Once
	wdone chan struct{} // closed by CloseWrite
	rdone chan struct{} // closed by CloseRead
}

// NewPipe returns a pipe with the given buffer depth (in access units).
func NewPipe(depth int) *Pipe {
	if depth < 1 {
		depth = 1
	}
	return &Pipe{
		ch:    make(chan codec.EncodedFrame, depth),
		wdone: make(chan struct{}),
		rdone: make(chan struct{}),
	}
}

// WriteCtx enqueues one access unit, blocking if the pipe is full.
// Writing to a closed pipe (either side) reports io.ErrClosedPipe; a
// producer blocked on a full pipe unwinds with ctx.Err() when the
// context ends.
func (p *Pipe) WriteCtx(ctx context.Context, f codec.EncodedFrame) error {
	select {
	case <-p.wdone:
		return io.ErrClosedPipe
	case <-p.rdone:
		return io.ErrClosedPipe
	default:
	}
	select {
	case p.ch <- f:
		return nil
	case <-p.wdone:
		return io.ErrClosedPipe
	case <-p.rdone:
		return io.ErrClosedPipe
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CloseWrite signals end of stream to the reader; buffered access units
// remain readable.
func (p *Pipe) CloseWrite() {
	p.wonce.Do(func() { close(p.wdone) })
}

// CloseRead hangs up the consumer side: pending and future WriteCtx
// calls return io.ErrClosedPipe, so an abandoned producer always unwinds.
// Buffered access units are discarded.
func (p *Pipe) CloseRead() {
	p.ronce.Do(func() { close(p.rdone) })
}

// NextCtx dequeues the next access unit, blocking until one is
// available; io.EOF after CloseWrite drains, io.ErrClosedPipe after
// CloseRead. A consumer blocked on an empty pipe unwinds with ctx.Err()
// when the context ends.
func (p *Pipe) NextCtx(ctx context.Context) (codec.EncodedFrame, error) {
	// A consumer that hung up stays hung up; otherwise buffered units
	// are delivered before the writer's shutdown signal, so the
	// consumer always drains what the producer committed.
	select {
	case <-p.rdone:
		return codec.EncodedFrame{}, io.ErrClosedPipe
	default:
	}
	select {
	case f := <-p.ch:
		return f, nil
	default:
	}
	select {
	case f := <-p.ch:
		return f, nil
	case <-p.rdone:
		return codec.EncodedFrame{}, io.ErrClosedPipe
	case <-ctx.Done():
		return codec.EncodedFrame{}, ctx.Err()
	case <-p.wdone:
		select {
		case f := <-p.ch:
			return f, nil
		default:
			return codec.EncodedFrame{}, io.EOF
		}
	}
}

// PumpVideo feeds an encoded video through the pipe at the capture rate
// (no pacing when clock is nil), closing the write side afterwards. Run
// it in its own goroutine. It unwinds — returning the cause — when ctx
// is cancelled mid-sleep or mid-write, or when the reader hangs up
// (io.ErrClosedPipe); plan injects deterministic stalls before writes.
func PumpVideo(ctx context.Context, p *Pipe, enc *codec.Encoded, clock Clock, plan *FaultPlan) error {
	defer p.CloseWrite()
	if ctx == nil {
		ctx = context.Background()
	}
	sleeper := clock
	if sleeper == nil {
		sleeper = RealClock{}
	}
	var start time.Time
	if clock != nil {
		start = clock.Now()
	}
	for i, f := range enc.Frames {
		if clock != nil {
			due := start.Add(time.Duration(i) * time.Second / time.Duration(enc.Config.FPS))
			if wait := due.Sub(clock.Now()); wait > 0 {
				if err := clock.SleepCtx(ctx, wait); err != nil {
					return err
				}
			}
		}
		if d, ok := plan.StallBefore(i); ok {
			if err := sleeper.SleepCtx(ctx, d); err != nil {
				return err
			}
		}
		if err := p.WriteCtx(ctx, f); err != nil {
			return err
		}
	}
	return nil
}
