package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// ServeDebug starts the observability listener on addr: expvar-style
// JSON snapshots of the live telemetry, the event journal, a
// Prometheus-scrapeable rendering, plus the standard pprof handlers, so
// long benchmark runs can be inspected while they execute. It returns
// the bound address (useful with ":0") and a closer. The server runs on
// its own goroutine and serves process-lifetime telemetry; it does not
// affect measurements beyond the request cost itself.
//
// The closer reports serve-loop failures: if the listener died mid-run
// (not a clean shutdown), the closer returns that error, so callers can
// distinguish "the ops surface was up the whole time" from "it silently
// disappeared".
//
//	/debug/metrics — CaptureTelemetry() as indented JSON
//	/debug/events  — the lifecycle event journal; ?since=seq resumes a cursor
//	/debug/prom    — Prometheus text exposition of counters/gauges/histograms
//	/debug/pprof/… — the net/http/pprof suite (profile, heap, trace, …)
func ServeDebug(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics: debug listener: %w", err)
	}
	boundAddr, closeFn := serveDebugOn(ln)
	return boundAddr, closeFn, nil
}

// NewDebugMux returns a mux with every /debug endpoint registered —
// the ops surface both the standalone debug listener (ServeDebug) and
// the vrserved admin API mount, so a daemon is observable on the same
// listener that serves its API.
func NewDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(CaptureTelemetry())
	})
	mux.HandleFunc("/debug/events", handleEvents)
	mux.HandleFunc("/debug/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveDebugOn runs the debug mux on an already-bound listener and
// returns the bound address and closer (split from ServeDebug so tests
// can kill the listener underneath the server).
func serveDebugOn(ln net.Listener) (string, func() error) {
	srv := &http.Server{Handler: NewDebugMux(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var once sync.Once
	var closeErr error
	closer := func() error {
		once.Do(func() {
			// If the serve loop already exited before close was requested,
			// that's a mid-run failure — report it even though srv.Close
			// would now mask the cause as a clean shutdown.
			select {
			case err := <-served:
				srv.Close()
				if err != nil && !errors.Is(err, http.ErrServerClosed) {
					closeErr = fmt.Errorf("metrics: debug server: %w", err)
				}
				return
			default:
			}
			cerr := srv.Close()
			if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
				closeErr = fmt.Errorf("metrics: debug server: %w", err)
				return
			}
			closeErr = cerr
		})
		return closeErr
	}
	return ln.Addr().String(), closer
}

// handleEvents serves the event journal as JSON. ?since=seq returns
// only events after that sequence number, so a poller can keep a
// cursor; the response's seq field is the cursor for the next poll and
// lost is how many events after the cursor the ring had already
// overwritten (a poller that sees it non-zero polled too slowly).
func handleEvents(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = v
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	seq := EventSeq()
	events, lost := eventRing.span(since, seq)
	enc.Encode(struct {
		Seq    uint64  `json:"seq"`
		Lost   uint64  `json:"lost"`
		Events []Event `json:"events"`
	}{seq, lost, events})
}
