package vcd

import (
	"encoding/json"
	"os"

	"repro/internal/metrics"
)

// ReportSummary is the machine-readable benchmark report: the global
// election (scale, resolution, mode) plus per-query runtime, throughput,
// and validation descriptive statistics, as §3.2 requires evaluators to
// report. It is what `vcd -json` prints, what vrserved persists per job
// and what an Artifact holds per run (DESIGN.md "One report path").
type ReportSummary struct {
	System    string  `json:"system"`
	Scale     int     `json:"scale"`
	Mode      string  `json:"mode"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// DecodedCache carries the shared decoded-input cache counters with
	// their derived hit-rate and decode-ratio.
	DecodedCache json.RawMessage `json:"decoded_cache"`
	// Record is the run's telemetry, trace summary and events, present
	// when metrics are enabled (-metrics-json / -report / -debug-addr).
	metrics.Record
	Queries []QuerySummary `json:"queries"`
}

// Artifact is the one -metrics-json file: every binary that has the
// flag writes this type through cli.Obs.WriteArtifact.
type Artifact struct {
	// Process is the whole invocation's interval, where the binary runs
	// more than one thing (vrbench's experiments).
	Process *metrics.Record `json:"process,omitempty"`
	// Runs holds one summary per benchmark run, in execution order.
	Runs []ReportSummary `json:"runs,omitempty"`
}

// QuerySummary is one query batch's row of the report.
type QuerySummary struct {
	Query          string  `json:"query"`
	Unsupported    bool    `json:"unsupported,omitempty"`
	BatchSize      int     `json:"batch_size"`
	Completed      int     `json:"completed"`
	ResourceErrors int     `json:"resource_errors,omitempty"`
	BatchSplits    int     `json:"batch_splits,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	Frames         int     `json:"frames"`
	FPS            float64 `json:"fps"`
	ValidatedPct   float64 `json:"validated_pct"`
	PSNRMean       float64 `json:"psnr_mean_db"`
	PSNRMin        float64 `json:"psnr_min_db"`
	SemanticPct    float64 `json:"semantic_pct"`
	// Online is the batch's streams' summed accounting, in an online
	// run.
	Online *OnlineReport `json:"online,omitempty"`
	// Telemetry is the batch's observability record, present when
	// metrics are enabled.
	Telemetry *metrics.Telemetry `json:"telemetry,omitempty"`
}

// Summarize flattens a RunReport into its serializable summary.
func Summarize(r *RunReport) ReportSummary {
	mode := "streaming"
	if r.Mode == WriteMode {
		mode = "write"
	}
	out := ReportSummary{
		System: r.System, Scale: r.Scale, Mode: mode,
		ElapsedMS:    r.Elapsed.Seconds() * 1000,
		DecodedCache: r.DecodedCache.Report(),
		Record:       r.Record,
	}
	for _, qr := range r.Queries {
		out.Queries = append(out.Queries, QuerySummary{
			Query:          string(qr.Query),
			Unsupported:    qr.Unsupported,
			BatchSize:      qr.BatchSize,
			Completed:      qr.Completed,
			ResourceErrors: qr.ResourceErrors,
			BatchSplits:    qr.BatchSplits,
			ElapsedMS:      qr.Elapsed.Seconds() * 1000,
			Frames:         qr.Frames,
			FPS:            qr.FPS(),
			ValidatedPct:   qr.Validation.PassRate() * 100,
			PSNRMean:       qr.Validation.PSNR.Mean,
			PSNRMin:        qr.Validation.PSNR.Min,
			SemanticPct:    qr.Validation.SemanticPassRate() * 100,
			Online:         qr.Online,
			Telemetry:      qr.Telemetry,
		})
	}
	return out
}

// Canonical strips the summary down to its deterministic content: what
// two runs of the same plan must agree on byte-for-byte. Timing
// (elapsed, fps), the observability record (telemetry, trace, events),
// decoded-cache locality and the online streams' accounting are
// excluded — they legitimately vary run to run and across topologies
// (per-worker caches split the hit pattern; an online run stages its
// inputs as streams) — exactly the exclusion set the differential
// test's reference comparison uses. Everything else (completions, frame
// counts, batch splits, validation statistics) is a pure function of
// seed, dataset, and configuration.
func (s ReportSummary) Canonical() ReportSummary {
	s.ElapsedMS = 0
	s.DecodedCache = metrics.CacheStats{}.Report()
	s.Record = metrics.Record{}
	qs := make([]QuerySummary, len(s.Queries))
	copy(qs, s.Queries)
	for i := range qs {
		qs[i].ElapsedMS = 0
		qs[i].FPS = 0
		qs[i].Telemetry = nil
		qs[i].Online = nil
	}
	s.Queries = qs
	return s
}

// MarshalReport renders a summary in the canonical artifact byte form:
// two-space indented JSON with a trailing newline.
func MarshalReport(s ReportSummary) ([]byte, error) { return marshalIndented(s) }

func marshalIndented(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFileAtomic persists data at path via temp file + rename, so a
// crash never leaves a truncated artifact — the persistence primitive
// every report/journal writer shares.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteReportFile persists a report summary or an artifact atomically
// in MarshalReport's byte form.
func WriteReportFile[T ReportSummary | Artifact](path string, v T) error {
	data, err := marshalIndented(v)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}
