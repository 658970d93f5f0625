package vcd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vdbms"
	"repro/internal/video"
)

// Online mode simulates real-time video processing: the VCD exposes a
// camera's encoded stream through a forward-only transport throttled to
// the capture rate (a pipe, standing in for named pipes, or RTP), and
// the system under test consumes it frame by frame with no knowledge of
// the total duration. Results are reported in frames per second, as the
// paper requires for online queries.
//
// Because online delivery crosses goroutines and real sockets, the run
// is governed by a context (cancellation and per-stream deadlines
// unwind producer and consumer without leaking either), survives
// transport faults by resynchronizing at the next intra frame, and
// accounts for every frame the faults cost (FramesDropped, Gaps,
// Resyncs, Retries, Degraded on the report).
//
// Of the three bundled engines only the LightDB-like streaming engine
// can meaningfully consume a live source (the paper likewise notes that
// "neither Scanner nor NoScope support operating on live-streaming
// video data"); the online driver therefore runs the streaming query
// directly against a Reader.

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

// MarshalJSON writes the transport by name, keeping the report schema
// readable.
func (t OnlineTransport) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON reads it back.
func (t *OnlineTransport) UnmarshalJSON(b []byte) (err error) {
	var name string
	if err = json.Unmarshal(b, &name); err == nil {
		*t, err = ParseOnlineTransport(name)
	}
	return err
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

// OnlineOptions configures one online query execution.
type OnlineOptions struct {
	// Transport selects the delivery mechanism (default pipe).
	Transport OnlineTransport
	// Clock paces the stream; nil uses the wall clock. Elapsed/FPS on
	// the report are measured on this clock, so fake-clock tests see
	// the simulated rate, not wall time.
	Clock stream.Clock
	// Sink receives the processed output video (may be nil).
	Sink vdbms.Sink
	// Faults is the deterministic fault schedule to inject (nil = ideal
	// channel).
	Faults *stream.FaultPlan
	// Timeout bounds the whole session (0 = none); on expiry the run
	// unwinds with context.DeadlineExceeded and no goroutine leaks.
	Timeout time.Duration
	// Retry bounds transient dial failures (zero value = defaults).
	Retry stream.RetryPolicy
}

// OnlineReport summarizes one online query execution, including the
// degradation accounting a faulted run accumulates.
type OnlineReport struct {
	Query     queries.QueryID `json:"query"`
	Transport OnlineTransport `json:"transport"`
	// Frames is the number of frames decoded and processed.
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
	// Degraded is set when any fault affected the stream; a clean run
	// reports false and byte-identical output to offline execution.
	Degraded bool          `json:"degraded"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// FPS is the achieved processing rate on the session clock. A
	// system keeping up with the camera reports ≈ the capture rate; a
	// slower system reports less.
	FPS float64 `json:"fps"`
}

// frameProcessor is a per-frame streaming kernel for the online-capable
// query subset.
type frameProcessor func(i int, f *video.Frame) (*video.Frame, error)

// onlineKernel builds the streaming kernel for an online-capable query.
// Kernels receive the source frame index (not the arrival ordinal), so
// temporal windows and ground-truth lookups stay aligned with the
// camera even when faults drop frames.
func onlineKernel(q queries.QueryID, p queries.Params, in *vdbms.Input) (frameProcessor, error) {
	switch q {
	case queries.Q1:
		cfg := in.Encoded.Config
		// The same plan-level window declaration the offline engines
		// consume, so online and offline Q1 select identical frames.
		f1, f2, _ := queries.FrameWindow(q, p, cfg.FPS, len(in.Encoded.Frames))
		return func(i int, f *video.Frame) (*video.Frame, error) {
			if i < f1 || i >= f2 {
				return nil, nil
			}
			return f.Crop(p.X1, p.Y1, p.X2, p.Y2), nil
		}, nil
	case queries.Q2a:
		return func(i int, f *video.Frame) (*video.Frame, error) {
			return f.Grayscale(), nil
		}, nil
	case queries.Q2c:
		env := in.Env
		tile := env.City.TileOf(env.Camera)
		want := make(map[string]bool, len(p.Classes))
		for _, c := range p.Classes {
			want[c.String()] = true
		}
		fps := in.Encoded.Config.FPS
		return func(i int, f *video.Frame) (*video.Frame, error) {
			t := env.FrameTime(i, fps)
			obs := tile.GroundTruth(env.Camera, t, f.W, f.H)
			// The box video of the offline reference (RunQ2c).
			return queries.RenderBoxesFrame(f.W, f.H, i, env.Detector.Detect(f, env.Camera.ID, obs), want), nil
		}, nil
	case queries.Q5:
		return func(i int, f *video.Frame) (*video.Frame, error) {
			nw, nh := f.W/p.Alpha, f.H/p.Beta
			if nw < 1 {
				nw = 1
			}
			if nh < 1 {
				nh = 1
			}
			return f.Downsample(nw, nh), nil
		}, nil
	}
	return nil, fmt.Errorf("vcd: query %s: %w", q, ErrOnlineUnsupported)
}

// ErrOnlineUnsupported marks queries outside the online-capable subset,
// so drivers can distinguish "not a streaming query" from a run failure.
var ErrOnlineUnsupported = errors.New("no online kernel")

// isIntra reports whether an access unit is a keyframe (the bitstream's
// first bit is the frame-type flag, 0 = intra) — the resync points the
// online decoder recovers at.
func isIntra(au []byte) bool { return len(au) > 0 && au[0]&0x80 == 0 }

// onlineSession is one live transport hooked to its producer goroutine.
type onlineSession struct {
	// next returns the next access unit and the source frame index it
	// carries (-1 when the transport has no indexing, i.e. the pipe).
	next func() ([]byte, int, error)
	// shutdown tears the transport down and joins the producer
	// goroutine, returning its terminal error; idempotent, safe on
	// every exit path.
	shutdown func() error
}

// RunOnlineOpts executes one query instance against a live-paced
// stream of the instance's first input, delivered over opt.Transport,
// and reports the achieved frame rate. A nil opt.Clock paces on the
// wall clock; tests inject a fake one. The options also carry fault
// injection, a per-stream deadline and the retry policy. Every exit
// path — success, decode or kernel failure, cancellation, deadline —
// unwinds the producer goroutine before returning.
func RunOnlineOpts(ctx context.Context, inst *vdbms.QueryInstance, opt OnlineOptions) (*OnlineReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	clock := opt.Clock
	if clock == nil {
		clock = stream.RealClock{}
	}
	var cancel context.CancelFunc
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	in := inst.Inputs[0]
	kernel, err := onlineKernel(inst.Query, inst.Params, in)
	if err != nil {
		return nil, err
	}
	cfg := in.Encoded.Config

	rep := &OnlineReport{Query: inst.Query, Transport: opt.Transport}
	sp := metrics.StartSpan(metrics.StageOnline)
	defer func() {
		sp.Frames(rep.Frames)
		sp.End()
		recordOnline(rep)
	}()

	// The session clock starts before the producer does: on a fake
	// clock the producer may pace the whole stream ahead of the first
	// consumer read, and that simulated time is part of the run.
	start := clock.Now()
	var sess *onlineSession
	switch opt.Transport {
	case TransportPipe:
		sess = startPipeSession(ctx, cancel, in, opt.Clock, opt.Faults)
	case TransportRTP:
		sess, err = startRTPSession(ctx, cancel, in, clock, opt, rep)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("vcd: unknown transport %d", opt.Transport)
	}
	defer sess.shutdown()

	dec, err := codec.NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	faulty := opt.Faults.Active()
	out := video.NewVideo(cfg.FPS)
	expect := 0     // next source frame index expected from the stream
	resync := false // discard inter frames until the next keyframe
	for {
		au, fi, err := sess.next()
		if err == io.EOF {
			if perr := sess.shutdown(); perr != nil && perr != io.ErrClosedPipe {
				return nil, perr
			}
			break
		}
		var gap *stream.StreamGapError
		if errors.As(err, &gap) {
			// Packets lost in transit: the receiver already skipped to
			// the next access-unit boundary; recover at a keyframe. The
			// frames the gap cost are counted when the next unit's
			// index arrives.
			rep.Gaps++
			rep.Degraded = true
			resync = true
			continue
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			// Join the producer so the server-side root cause (a write
			// failure, an injected cut) isn't lost behind the receiver
			// symptom.
			if perr := sess.shutdown(); perr != nil && perr != io.ErrClosedPipe && !errors.Is(perr, context.Canceled) {
				return nil, fmt.Errorf("vcd: online receiver: %w (sender: %v)", err, perr)
			}
			return nil, err
		}
		if fi < 0 {
			fi = expect
		}
		if fi < expect {
			// Stale delivery behind a reorder fault; its indices were
			// accounted when the stream jumped ahead. Unusable either
			// way — the reference state has moved past it.
			rep.Degraded = true
			resync = true
			continue
		}
		if fi > expect {
			rep.FramesDropped += fi - expect
			rep.Degraded = true
			resync = true
		}
		expect = fi + 1
		if resync {
			if !isIntra(au) {
				// An inter frame without its reference chain is
				// undecodable; keep counting it as dropped until the
				// next intra frame restores a clean state.
				rep.FramesDropped++
				continue
			}
			rep.Resyncs++
			resync = false
		}
		f, err := dec.Decode(au)
		if err != nil {
			if !faulty {
				return nil, err
			}
			// Corrupted in transit: skip the frame and resynchronize at
			// the next intra frame.
			rep.FramesDropped++
			rep.Degraded = true
			resync = true
			continue
		}
		f.Index = fi
		g, err := kernel(fi, f)
		if err != nil {
			return nil, err
		}
		if g != nil {
			out.Append(g)
		}
		rep.Frames++
	}
	// Tail loss: frames that never arrived before the clean close (a
	// drop of the final packets produces no observable gap).
	if total := len(in.Encoded.Frames); expect < total {
		rep.FramesDropped += total - expect
		rep.Degraded = true
	}
	rep.Elapsed = clock.Now().Sub(start)
	if rep.Elapsed > 0 {
		rep.FPS = float64(rep.Frames) / rep.Elapsed.Seconds()
	}
	if opt.Sink != nil {
		if err := opt.Sink.Emit("out", out); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// startPipeSession wires a PumpVideo producer to a pipe and returns the
// session. pacing keeps the historical contract: a nil caller clock
// paces on the wall clock inside PumpVideo.
func startPipeSession(ctx context.Context, cancel context.CancelFunc, in *vdbms.Input, pacing stream.Clock, plan *stream.FaultPlan) *onlineSession {
	if pacing == nil {
		pacing = stream.RealClock{}
	}
	p := stream.NewPipe(4)
	pumpErr := make(chan error, 1)
	go func() { pumpErr <- stream.PumpVideo(ctx, p, in.Encoded, pacing, plan) }()
	var once sync.Once
	var perr error
	return &onlineSession{
		next: func() ([]byte, int, error) {
			f, err := p.NextCtx(ctx)
			if err != nil {
				return nil, -1, err
			}
			return f.Data, -1, nil
		},
		shutdown: func() error {
			once.Do(func() {
				p.CloseRead()
				cancel()
				perr = <-pumpErr
			})
			return perr
		},
	}
}

// startRTPSession serves the input over loopback RTP and dials it with
// bounded retry, recording retries on the report.
func startRTPSession(ctx context.Context, cancel context.CancelFunc, in *vdbms.Input, clock stream.Clock, opt OnlineOptions, rep *OnlineReport) (*onlineSession, error) {
	pacing := opt.Clock
	if pacing == nil {
		pacing = stream.RealClock{}
	}
	addr, errc, err := stream.ServeRTP(ctx, in.Encoded, pacing, opt.Faults)
	if err != nil {
		return nil, err
	}
	var once sync.Once
	var serr error
	join := func() error {
		once.Do(func() {
			cancel()
			serr = <-errc
		})
		return serr
	}
	recv, retries, err := dialRTP(ctx, clock, addr, opt.Faults, opt.Retry)
	rep.Retries = retries
	if retries > 0 {
		rep.Degraded = true
	}
	if err != nil {
		join()
		return nil, err
	}
	fps := in.Encoded.Config.FPS
	return &onlineSession{
		next: func() ([]byte, int, error) {
			au, err := recv.NextAccessUnit()
			if err != nil {
				return nil, -1, err
			}
			return au, stream.FrameIndexOf(recv.LastTimestamp(), fps), nil
		},
		shutdown: func() error {
			recv.Close()
			return join()
		},
	}, nil
}

// recordOnline feeds the run's degradation accounting into the global
// telemetry counters (mirrored into -metrics-json and /debug/metrics).
func recordOnline(rep *OnlineReport) {
	metrics.Add(metrics.OnlineFrames, int64(rep.Frames))
	metrics.Add(metrics.OnlineDropped, int64(rep.FramesDropped))
	metrics.Add(metrics.OnlineGaps, int64(rep.Gaps))
	metrics.Add(metrics.OnlineResyncs, int64(rep.Resyncs))
	metrics.Add(metrics.OnlineRetries, int64(rep.Retries))
	if rep.Degraded {
		metrics.Add(metrics.OnlineDegraded, 1)
	}
}

// dialRTP connects to an RTP-over-TCP endpoint with bounded retry:
// transient refusals (and injected dial faults from plan) back off on
// the session clock and try again, up to the policy's attempt budget.
// It returns the receiver and the number of retries that were needed.
func dialRTP(ctx context.Context, clock stream.Clock, addr string, plan *stream.FaultPlan, pol stream.RetryPolicy) (*stream.RTPReceiver, int, error) {
	var conn net.Conn
	dials := 0
	retries, err := stream.Retry(ctx, clock, pol, func() error {
		dials++
		if plan.FailDial(dials - 1) {
			return errTransientDial
		}
		var derr error
		conn, derr = (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		return derr
	})
	if err != nil {
		return nil, retries, err
	}
	return stream.NewRTPReceiver(conn), retries, nil
}

// errTransientDial is the injected stand-in for a refused connection.
var errTransientDial = &net.OpError{Op: "dial", Net: "tcp", Err: errDialFault{}}

type errDialFault struct{}

func (errDialFault) Error() string { return "injected dial fault" }
func (errDialFault) Timeout() bool { return true }
