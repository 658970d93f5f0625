package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// StageTelemetry is the serialized form of one stage's interval
// activity: operation count, throughput, and the latency distribution's
// log-bucket quantiles (upper-edge estimates, ≤ 12.5% high).
type StageTelemetry struct {
	Count   int64   `json:"count"`
	Frames  int64   `json:"frames,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	Hits    int64   `json:"cache_hits,omitempty"`
	Misses  int64   `json:"cache_misses,omitempty"`
	Workers int64   `json:"workers_seen,omitempty"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// Telemetry is one measured interval's machine-readable observability
// record: per-stage latency histogram summaries, one section per group
// of the scalar table (worker-pool and cache gauges, frame-pool
// recycling, decoded cache, online and shard counters), each already
// serialized with its derived ratios, and the telemetry error channel.
// It is what -metrics-json serializes and what RunReport carries per
// run and per query batch. Online and Shard are present only when an
// online session ran or the coordinator recorded a fault.
type Telemetry struct {
	Enabled   bool                      `json:"enabled"`
	WallMS    float64                   `json:"wall_ms,omitempty"`
	Stages    map[string]StageTelemetry `json:"stages"`
	Gauges    json.RawMessage           `json:"gauges"`
	FramePool json.RawMessage           `json:"frame_pool"`
	Cache     json.RawMessage           `json:"decoded_cache"`
	Online    json.RawMessage           `json:"online,omitempty"`
	Shard     json.RawMessage           `json:"shard,omitempty"`
	// Errors is the interval's share of the telemetry error channel: the
	// last maxErrors errors recorded during it; ErrorsDropped counts the
	// earlier ones.
	Errors        []string `json:"errors,omitempty"`
	ErrorsDropped int64    `json:"errors_dropped,omitempty"`
}

// Sub derives the interval telemetry between two captures: stage
// histograms, counters, frame-pool and cache activity are exact deltas;
// gauge peaks are process-cumulative high-water marks (taken from the
// later capture). It is Delta followed by summarization, so a
// single-process interval and a merged multi-process interval go
// through the same computation.
func (s Snapshot) Sub(prev Snapshot) Telemetry {
	return s.Delta(prev).Telemetry()
}

// CaptureTelemetry returns the process-lifetime telemetry (everything
// since start) — the live view the -debug-addr listener serves.
func CaptureTelemetry() Telemetry {
	return Capture().Sub(Snapshot{})
}

// Stage returns the named stage's interval record (zero when the stage
// was idle).
func (t Telemetry) Stage(s Stage) StageTelemetry {
	return t.Stages[s.String()]
}

// WriteTable pretty-prints the stage breakdown — the -report view: one
// row per active stage in pipeline order, with counts, throughput, and
// latency quantiles, then one line per serialized section with the rows
// and ratios the table gives a label. It reads the sections themselves,
// so a record decoded from JSON prints as the one that was encoded.
func (t Telemetry) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-14s %9s %9s %12s %10s %9s %9s %9s %9s\n",
		"stage", "count", "frames", "bytes", "total", "p50", "p95", "p99", "max")
	for _, name := range stageNames {
		if st, ok := t.Stages[name]; ok {
			fmt.Fprintf(w, "%-14s %9d %9d %12d %10s %9s %9s %9s %9s\n",
				name, st.Count, st.Frames, st.Bytes,
				fmtMS(st.TotalMS), fmtMS(st.P50MS), fmtMS(st.P95MS), fmtMS(st.P99MS), fmtMS(st.MaxMS))
		}
	}
	for g, section := range [...]json.RawMessage{groupGauges: t.Gauges, groupFramePool: t.FramePool, groupCache: t.Cache, groupOnline: t.Online, groupShard: t.Shard} {
		var vals map[string]json.Number
		if json.Unmarshal(section, &vals) != nil {
			continue // an optional section the interval left out
		}
		shown := groups[g].always
		var parts []string
		for _, row := range table {
			if n, ok := vals[row.key]; ok && row.group == group(g) && row.label != "" {
				parts = append(parts, n.String()+" "+row.label)
				shown = shown || n != "0"
			}
		}
		for _, r := range ratios {
			if r.group == group(g) {
				f, _ := vals[r.key].Float64()
				parts = append(parts, fmt.Sprintf("%s %.2f", r.label, f))
			}
		}
		if shown {
			fmt.Fprintf(w, "%s: %s\n", groups[g].label, strings.Join(parts, ", "))
		}
	}
	for _, e := range t.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
}

func fmtMS(ms float64) string {
	return time.Duration(ms * float64(time.Millisecond)).Round(10 * time.Microsecond).String()
}
