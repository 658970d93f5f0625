package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of the process
// registry, served at /debug/prom so a stock scraper can watch a
// long-running worker pool. Stage latency histograms render with
// cumulative buckets at the log-scale bucket upper edges (seconds);
// every row of the scalar table renders as a single sample, every row
// of the stage table as one sample per active stage. Only stages with
// activity are emitted — the bucket layout is fixed, so series stay
// consistent across scrapes.

// WriteProm renders the current process-lifetime registry state.
func WriteProm(w io.Writer) {
	s := Capture()

	promHeader(w, "vr_metrics_enabled", "gauge", "Whether span recording is enabled.")
	promSample(w, "vr_metrics_enabled", "", boolVal(Enabled()))

	promHeader(w, "vr_stage_seconds", "histogram", "Latency distribution per pipeline stage.")
	for i := range s.stages {
		lat := &s.stages[i].Lat
		if lat.Count() == 0 {
			continue
		}
		stage := Stage(i).String()
		var cum int64
		for b, n := range lat.Buckets {
			if n == 0 {
				continue
			}
			cum += n
			le := strconv.FormatFloat(float64(bucketUpper(b))/1e9, 'g', -1, 64)
			promSample(w, "vr_stage_seconds_bucket", `stage="`+promEscape(stage)+`",le="`+le+`"`, strconv.FormatInt(cum, 10))
		}
		promSample(w, "vr_stage_seconds_bucket", `stage="`+promEscape(stage)+`",le="+Inf"`, strconv.FormatInt(cum, 10))
		promSample(w, "vr_stage_seconds_sum", `stage="`+promEscape(stage)+`"`, strconv.FormatFloat(float64(lat.Sum)/1e9, 'g', -1, 64))
		promSample(w, "vr_stage_seconds_count", `stage="`+promEscape(stage)+`"`, strconv.FormatInt(cum, 10))
	}

	for sid, row := range stageTable {
		if row.prom == "" {
			continue
		}
		promHeader(w, row.prom, promTypes[row.kind], row.help)
		for i := range s.stages {
			if v := s.stages[i].Scalars[sid]; v != 0 {
				promSample(w, row.prom, `stage="`+promEscape(Stage(i).String())+`"`, strconv.FormatInt(v, 10))
			}
		}
	}
	for id, row := range table {
		promHeader(w, row.prom, promTypes[row.kind], row.help)
		promSample(w, row.prom, "", strconv.FormatInt(s.vals[id], 10))
	}
}

func promHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func promSample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func boolVal(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
