package metrics

import (
	"encoding/json"
	"fmt"
)

// The wire telemetry form: Telemetry summarizes an interval into
// quantiles, which cannot be combined across processes — quantiles of
// quantiles are meaningless. WireDelta instead carries the interval's
// raw histogram buckets and scalars, which merge exactly (bucket-wise
// sums, scalars by their kind), so a shard coordinator can roll worker
// telemetry up into one record identical in shape to a single-process
// capture. It is the serialized unit the shard protocol ships in worker
// summaries.
//
// Every fixed array in it — stages, scalars, histogram buckets —
// travels as a JSON object of its non-zero elements keyed by name, so
// the sender is never trusted for a position: a worker from an older
// build leaves the rows it lacks at zero, and a name this build does not
// have fails the decode rather than being booked as something else.

// marshalByName writes the non-zero elements as an object keyed by
// name(i).
func marshalByName[T comparable](name func(int) string, elems []T) ([]byte, error) {
	var zero T
	out := map[string]T{}
	for i, e := range elems {
		if e != zero {
			out[name(i)] = e
		}
	}
	return json.Marshal(out)
}

// unmarshalByName is its inverse. The sender is another process: a
// member that cannot be placed is an error, not telemetry.
func unmarshalByName[T any](b []byte, name func(int) string, elems []T) error {
	var in map[string]T
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	for i := range elems {
		elems[i] = in[name(i)]
		delete(in, name(i))
	}
	for unknown := range in {
		return fmt.Errorf("metrics: wire telemetry names %q, which this build does not have", unknown)
	}
	return nil
}

func (v values) MarshalJSON() ([]byte, error)  { return marshalByName(rowName, v[:len(table)]) }
func (v *values) UnmarshalJSON(b []byte) error { return unmarshalByName(b, rowName, v[:len(table)]) }
func rowName(i int) string                     { return table[i].prom }

// stageValues is one reading of a stage's block of scalars (stageTable).
type stageValues [numStageScalars]int64

func (v stageValues) MarshalJSON() ([]byte, error)  { return marshalByName(stageRowName, v[:]) }
func (v *stageValues) UnmarshalJSON(b []byte) error { return unmarshalByName(b, stageRowName, v[:]) }
func stageRowName(i int) string                     { return stageTable[i].key }

// WireStage is one stage's activity in exactly mergeable form — the
// latency histogram and the stage's scalars. A Snapshot holds one per
// stage cumulatively, a WireDelta per interval.
type WireStage struct {
	Lat     HistogramSnapshot `json:"lat"`
	Scalars stageValues       `json:"scalars"`
}

// active reports whether the stage did anything worth a telemetry row.
func (ws *WireStage) active() bool {
	return ws.Lat.Count() != 0 || ws.Scalars[stageFrames] != 0 || ws.Scalars[stageBytes] != 0
}

// stageSet is every stage's record, indexed by Stage.
type stageSet [numStages]WireStage

func (s stageSet) MarshalJSON() ([]byte, error)  { return marshalByName(stageName, s[:]) }
func (s *stageSet) UnmarshalJSON(b []byte) error { return unmarshalByName(b, stageName, s[:]) }
func stageName(i int) string                     { return stageNames[i] }

// WireDelta is one interval's telemetry in exactly mergeable form.
type WireDelta struct {
	WallNS        int64    `json:"wall_ns,omitempty"`
	Stages        stageSet `json:"stages"`
	Scalars       values   `json:"scalars"`
	Errors        []string `json:"errors,omitempty"`
	ErrorsDropped int64    `json:"errors_dropped,omitempty"`
}

// Delta returns the interval s − prev in wire form, every scalar by its
// kind: counters (and stage latency) are exact deltas, gauges and peaks
// are taken from the later capture (a high-water mark has no interval
// form). The error list is what the error channel recorded between the
// two captures, with the ones it has already overwritten counted.
func (s Snapshot) Delta(prev Snapshot) WireDelta {
	d := WireDelta{WallNS: s.captured.Sub(prev.captured).Nanoseconds()}
	for i := range s.stages {
		cur, old := &s.stages[i], &prev.stages[i]
		d.Stages[i].Lat = cur.Lat.Sub(old.Lat)
		delta(stageTable[:], d.Stages[i].Scalars[:], cur.Scalars[:], old.Scalars[:])
	}
	delta(table, d.Scalars[:], s.vals[:], prev.vals[:])
	errs, lost := errRing.span(uint64(prev.vals[telemetryErrors]), uint64(s.vals[telemetryErrors]))
	d.Errors, d.ErrorsDropped = errs, int64(lost)
	return d
}

// Merge folds o into d: histogram buckets sum exactly, scalars combine
// by their kind (counters and gauges sum, peaks take the maximum across
// processes), wall time takes the longer interval (shards run
// concurrently, not back to back), and error lists concatenate under
// the usual bound.
func (d *WireDelta) Merge(o WireDelta) {
	if o.WallNS > d.WallNS {
		d.WallNS = o.WallNS
	}
	for i := range d.Stages {
		d.Stages[i].Lat = d.Stages[i].Lat.Merge(o.Stages[i].Lat)
		merge(stageTable[:], d.Stages[i].Scalars[:], o.Stages[i].Scalars[:])
	}
	merge(table, d.Scalars[:], o.Scalars[:])
	for _, e := range o.Errors {
		if len(d.Errors) >= maxErrors {
			d.ErrorsDropped++
			continue
		}
		d.Errors = append(d.Errors, e)
	}
	d.ErrorsDropped += o.ErrorsDropped
}

// Telemetry summarizes the wire delta into the quantile form reports
// carry — the same computation Snapshot.Sub performs, applied after
// any merging.
func (d WireDelta) Telemetry() Telemetry {
	v := &d.Scalars
	t := Telemetry{
		Enabled:       Enabled(),
		WallMS:        float64(d.WallNS) / 1e6,
		Stages:        make(map[string]StageTelemetry),
		Gauges:        v.section(groupGauges),
		FramePool:     v.section(groupFramePool),
		Cache:         v.section(groupCache),
		Online:        v.section(groupOnline),
		Shard:         v.section(groupShard),
		Errors:        d.Errors,
		ErrorsDropped: d.ErrorsDropped,
	}
	for i := range d.Stages {
		ws := &d.Stages[i]
		if !ws.active() {
			continue
		}
		t.Stages[Stage(i).String()] = StageTelemetry{
			Count:   ws.Lat.Count(),
			Frames:  ws.Scalars[stageFrames],
			Bytes:   ws.Scalars[stageBytes],
			Hits:    ws.Scalars[stageHits],
			Misses:  ws.Scalars[stageMisses],
			Workers: ws.Scalars[stageWorkers],
			TotalMS: float64(ws.Lat.Sum) / 1e6,
			MeanMS:  ws.Lat.Mean() / 1e6,
			P50MS:   float64(ws.Lat.Quantile(0.50)) / 1e6,
			P95MS:   float64(ws.Lat.Quantile(0.95)) / 1e6,
			P99MS:   float64(ws.Lat.Quantile(0.99)) / 1e6,
			MaxMS:   float64(ws.Lat.Max()) / 1e6,
		}
	}
	return t
}
