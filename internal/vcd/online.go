package vcd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/vdbms"
	"repro/internal/video"
)

// Online mode simulates real-time video processing: the VCD exposes a
// camera's encoded stream as RTP packets throttled to the capture rate,
// over an in-memory pipe (standing in for named pipes) or a loopback
// TCP socket, and reports frames per second, as the paper requires for
// online queries. It is a way Run stages an input, not a second
// driver: with Options.Online set, the one instance loop runs each
// instance of the batch against a session of its own, and the results
// go through the driver's result writer and validator like offline
// ones. This file is the transport half of a session: connect and
// retry, RTP receive, keyframe resync, corrupt-unit skip, drop
// accounting and decode, under a context whose end unwinds producer and
// consumer. The execution half is the engine's own Execute over the
// input's vdbms.FrameSource. Only LightDB-like consumes a live source;
// Scanner-like and NoScope-like report the query unsupported, as in the
// paper ("neither Scanner nor NoScope support operating on
// live-streaming video data"), and so does an instance with more than
// one input (Q8, Q9).

// OnlineTransport selects the online delivery mechanism.
type OnlineTransport int

// The transports of Section 3.2: a named pipe on a local filesystem or
// RTP.
const (
	TransportPipe OnlineTransport = iota
	TransportRTP
)

// String names the transport for reports.
func (t OnlineTransport) String() string {
	if t == TransportRTP {
		return "rtp"
	}
	return "pipe"
}

// ParseOnlineTransport resolves a transport name (-transport).
func ParseOnlineTransport(name string) (OnlineTransport, error) {
	switch name {
	case "pipe":
		return TransportPipe, nil
	case "rtp":
		return TransportRTP, nil
	}
	return 0, fmt.Errorf("vcd: unknown transport %q", name)
}

// OnlineOptions stages a run's inputs live (Options.Online): every
// instance streams its input to the engine as a session of its own.
type OnlineOptions struct {
	// Transport selects the delivery mechanism (default pipe).
	Transport OnlineTransport
	// Clock makes each session's clock; nil uses the wall clock.
	// Elapsed/FPS on the report are measured on it, so fake-clock runs
	// see the simulated rate, not wall time.
	Clock func() stream.Clock
	// Faults is the run's deterministic fault schedule (nil = ideal
	// channel); the driver scopes it to each instance's camera
	// (ForCamera), so every stream degrades on its own schedule.
	Faults *stream.FaultPlan
	// Timeout bounds each session (0 = none); on expiry the stream
	// unwinds with context.DeadlineExceeded and no goroutine leaks.
	Timeout time.Duration
	// Retry bounds transient dial failures (zero value = defaults).
	Retry stream.RetryPolicy
}

// OnlineReport is the degradation accounting of one stream
// (InstanceResult.Online), or of a batch's streams summed
// (QueryReport.Online).
type OnlineReport struct {
	// Frames is the number of frames received and decoded, the ones the
	// engine did not read (past its window) included.
	Frames int `json:"frames"`
	// FramesDropped counts source frames lost to transport faults:
	// dropped packets, discarded partial access units, corrupt frames,
	// and inter frames skipped while waiting for a resync keyframe.
	FramesDropped int `json:"frames_dropped"`
	// Gaps counts RTP sequence discontinuities observed.
	Gaps int `json:"gaps"`
	// Resyncs counts recoveries: decoding resumed at an intra frame
	// after a gap or corruption.
	Resyncs int `json:"resyncs"`
	// Retries counts transient connection attempts beyond the first.
	Retries int `json:"retries"`
	// Degraded counts the streams any fault affected; a clean stream
	// writes the bytes offline execution writes.
	Degraded int           `json:"degraded"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// FPS is the achieved processing rate on the session clock. A
	// system keeping up with the camera reports ≈ the capture rate; a
	// slower system reports less.
	FPS float64 `json:"fps"`
}

// add sums one stream's accounting into a batch's, and its rate over
// the summed session time.
func (r *OnlineReport) add(s *OnlineReport) {
	r.Frames += s.Frames
	r.FramesDropped += s.FramesDropped
	r.Gaps += s.Gaps
	r.Resyncs += s.Resyncs
	r.Retries += s.Retries
	r.Degraded += s.Degraded
	r.Elapsed += s.Elapsed
	r.FPS = rate(r.Frames, r.Elapsed)
}

// isIntra reports whether an access unit is a keyframe (the bitstream's
// first bit is the frame-type flag, 0 = intra) — the resync points the
// online decoder recovers at.
func isIntra(au []byte) bool { return len(au) > 0 && au[0]&0x80 == 0 }

// runOnline executes one query instance on sys against a live-paced
// stream of its input, delivered over opt.Transport with opt's faults,
// deadline and retries, and reports the achieved frame rate; results go
// to sink. The stream connects at the engine's first read, so an
// instance sys cannot run live returns *vdbms.ErrUnsupported before a
// frame is sent. Every exit path unwinds the producer goroutine.
func runOnline(ctx context.Context, sys vdbms.System, inst *vdbms.QueryInstance, opt OnlineOptions, sink vdbms.Sink) (*OnlineReport, error) {
	if len(inst.Inputs) != 1 || !sys.Supports(inst.Query) {
		return nil, &vdbms.ErrUnsupported{System: sys.Name(), Query: inst.Query}
	}
	var clock stream.Clock = stream.RealClock{}
	if opt.Clock != nil {
		clock = opt.Clock()
	}
	var cancel context.CancelFunc
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	in := inst.Inputs[0]
	rep := &OnlineReport{}
	sp := metrics.StartSpan(metrics.StageOnline)
	defer func() {
		sp.Frames(rep.Frames)
		sp.End()
		// The global counters mirror every session's accounting into
		// -metrics-json and /debug/metrics.
		metrics.Add(metrics.OnlineFrames, int64(rep.Frames))
		metrics.Add(metrics.OnlineDropped, int64(rep.FramesDropped))
		metrics.Add(metrics.OnlineGaps, int64(rep.Gaps))
		metrics.Add(metrics.OnlineResyncs, int64(rep.Resyncs))
		metrics.Add(metrics.OnlineRetries, int64(rep.Retries))
		metrics.Add(metrics.OnlineDegraded, int64(rep.Degraded))
	}()

	// The session clock starts before the producer does: on a fake
	// clock the producer may pace the whole stream ahead of the first
	// consumer read, and that simulated time is part of the run.
	start := clock.Now()
	s := &session{ctx: ctx, cancel: cancel, clock: clock, opt: opt, enc: in.Encoded, rep: rep}
	defer s.join()
	live := *in
	live.Source, live.Live = nil, s
	run := *inst
	run.Inputs = []*vdbms.Input{&live}
	if err := sys.Execute(&run, sink); err != nil {
		return nil, err
	}
	// An engine stops reading at the end of its window; the rest of the
	// stream is still received and counted, not lost.
	f, err := s.Next()
	for ; err == nil; f, err = s.Next() {
		video.PutFrame(f)
	}
	if err != io.EOF {
		return nil, err
	}
	// Tail loss: frames that never arrived before the clean close (a
	// drop of the final packets produces no observable gap).
	if total := len(in.Encoded.Frames); s.expect < total {
		rep.FramesDropped += total - s.expect
		rep.Degraded = 1
	}
	rep.Elapsed = clock.Now().Sub(start)
	rep.FPS = rate(rep.Frames, rep.Elapsed)
	return rep, nil
}

// session is the transport half of an online run and the live input's
// vdbms.FrameSource: it connects at the first Next, which one goroutine
// at a time calls.
type session struct {
	ctx    context.Context
	cancel context.CancelFunc
	clock  stream.Clock
	opt    OnlineOptions
	enc    *codec.Encoded
	rep    *OnlineReport

	recv   *stream.RTPReceiver
	sent   <-chan error // the sender's terminal error, once one runs
	once   sync.Once
	serr   error
	dec    *codec.Decoder // nil until connected
	expect int            // next source frame index expected from the stream
	resync bool           // discard inter frames until the next keyframe
	eof    bool
}

// Next returns the next decoded frame stamped with its source index, or
// io.EOF once the stream closed cleanly.
func (s *session) Next() (*video.Frame, error) {
	if s.eof {
		return nil, io.EOF
	}
	if s.dec == nil {
		if err := s.connect(); err != nil {
			return nil, err
		}
	}
	rep, recv, fps := s.rep, s.recv, s.enc.Config.FPS
	for {
		au, err := recv.NextAccessUnit()
		if err == io.EOF {
			if perr := s.join(); perr != nil {
				return nil, perr
			}
			s.eof = true
			return nil, io.EOF
		}
		var gap *stream.StreamGapError
		if errors.As(err, &gap) {
			// Packets lost in transit: the receiver already skipped to
			// the next access-unit boundary; recover at a keyframe. The
			// frames the gap cost are counted when the next unit's
			// index arrives.
			rep.Gaps++
			rep.Degraded = 1
			s.resync = true
			continue
		}
		if err != nil {
			if cerr := s.ctx.Err(); cerr != nil {
				return nil, cerr
			}
			// Join the producer so the server-side root cause (a write
			// failure, an injected cut) isn't lost behind the receiver
			// symptom.
			if perr := s.join(); perr != nil && perr != io.ErrClosedPipe && !errors.Is(perr, context.Canceled) {
				return nil, fmt.Errorf("vcd: online receiver: %w (sender: %v)", err, perr)
			}
			return nil, err
		}
		fi := stream.FrameIndexOf(recv.LastTimestamp(), fps)
		if fi < s.expect {
			// A timestamp behind the stream. The sender's increase and
			// the receiver drops late packets, so only a damaged stream
			// delivers one; the reference state has moved past it.
			rep.Degraded = 1
			s.resync = true
			continue
		}
		if fi > s.expect {
			rep.FramesDropped += fi - s.expect
			rep.Degraded = 1
			s.resync = true
		}
		s.expect = fi + 1
		if s.resync {
			if !isIntra(au) {
				// An inter frame without its reference chain is
				// undecodable; keep counting it as dropped until the
				// next intra frame restores a clean state.
				rep.FramesDropped++
				continue
			}
			rep.Resyncs++
			s.resync = false
		}
		f, err := s.dec.Decode(au)
		if err != nil {
			if !s.opt.Faults.Active() {
				return nil, err
			}
			// Corrupted in transit: skip the frame and resynchronize at
			// the next intra frame.
			rep.FramesDropped++
			rep.Degraded = 1
			s.resync = true
			continue
		}
		f.Index = fi
		rep.Frames++
		return f, nil
	}
}

// connect opens the session's stream. The transport decides only how
// the connection is made: the pipe is an in-memory net.Pipe whose
// sending end runs SendVideo, RTP a loopback TCP socket served by
// ServeRTP. One retry loop dials either, failing the attempts the plan
// schedules (dial=N) and backing off on the session clock, and the
// retries needed go on the report.
func (s *session) connect() error {
	ctx, enc, clock, opt := s.ctx, s.enc, s.clock, s.opt
	var dial func() (net.Conn, error)
	switch opt.Transport {
	case TransportPipe:
		dial = func() (net.Conn, error) {
			c, srv := net.Pipe()
			ch := make(chan error, 1)
			go func() { ch <- stream.SendVideo(ctx, srv, enc, clock, opt.Faults) }()
			s.sent = ch
			return c, nil
		}
	case TransportRTP:
		addr, errc, err := stream.ServeRTP(ctx, enc, clock, opt.Faults)
		if err != nil {
			return err
		}
		s.sent = errc
		dial = func() (net.Conn, error) { return (&net.Dialer{}).DialContext(ctx, "tcp", addr) }
	default:
		return fmt.Errorf("vcd: unknown transport %d", opt.Transport)
	}
	dials := 0
	retries, err := stream.Retry(ctx, clock, opt.Retry, func() error {
		dials++
		if opt.Faults.FailDial(dials - 1) {
			return errTransientDial
		}
		conn, err := dial()
		if err == nil {
			s.recv = stream.NewRTPReceiver(conn)
		}
		return err
	})
	s.rep.Retries = retries
	if retries > 0 {
		s.rep.Degraded = 1
	}
	if err != nil {
		return err
	}
	s.dec, err = codec.NewDecoder(enc.Config)
	return err
}

// join is the session's idempotent teardown, safe on every exit path: it
// closes the receiver, cancels the session and returns the sender's
// terminal error.
func (s *session) join() error {
	s.once.Do(func() {
		if s.recv != nil {
			s.recv.Close()
		}
		s.cancel()
		if s.sent != nil {
			s.serr = <-s.sent
		}
	})
	return s.serr
}

// errTransientDial is the injected stand-in for a refused connection.
var errTransientDial = &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("injected dial fault")}
