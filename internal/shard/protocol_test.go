package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vcd"
)

// TestProtocolRoundTrip frames every message type through the shared
// transport and back.
func TestProtocolRoundTrip(t *testing.T) {
	msgs := []struct {
		kind byte
		v    any
	}{
		{msgJob, JobSpec{
			Dataset: DatasetSpec{Gen: &GenSpec{Scale: 2, Width: 240, Height: 136, Duration: 1, FPS: 15, Seed: 9, QP: 20, Captions: true, TileRows: 2, TileCols: 2}},
			System:  SystemSpec{Name: "scannerlike", ScannerBudget: 16 << 20, ScannerHardLimit: 24 << 20},
			Opt:     vcd.Options{InstancesPerScale: 4, Seed: 42, Validate: true, Mode: vcd.StreamingMode},
			Metrics: true, HeartbeatNS: 1e9,
		}},
		{msgAssign, Assignment{Query: queries.Q3, Indices: []int{0, 3, 7}, Seq: 2}},
		{msgResult, InstanceResultWire{
			Query: "q3", Seq: 2,
			Files: []ResultFile{{Name: "result-q3-003-cam.vrmf", Data: []byte{1, 2, 3}}},
			Index: 3, Trace: 77, InstanceResult: vcd.InstanceResult{
				Elapsed: 12345, Frames: 15,
				Err: &vcd.InstanceError{Msg: "boom", Resource: true},
				Validation: &vcd.InstanceValidation{
					Checked: true, PSNR: 31.5, Passed: true, SemanticChecked: 4, SemanticPassed: 3,
					Err: &vcd.InstanceError{Msg: "no output"},
				},
			},
		}},
		{msgDone, AssignmentDone{Query: "q3", Seq: 2}},
		{msgSummary, vcd.Measured{Cache: metrics.CacheStats{Hits: 5, Misses: 2}}},
		{msgHeartbeat, struct{}{}},
		{msgError, WorkerError{Msg: "dataset gone"}},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := writeMsg(&buf, m.kind, m.v); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range msgs {
		kind, body, err := readMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if kind != m.kind {
			t.Fatalf("read type %d, want %d", kind, m.kind)
		}
		out := reflect.New(reflect.TypeOf(m.v))
		if err := decode(kind, body, out.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), m.v) {
			t.Errorf("type %d round trip = %+v, want %+v", m.kind, out.Elem().Interface(), m.v)
		}
	}
}

// TestReadMsgTruncation: a severed peer surfaces the framed transport's
// truncation error, the signal the coordinator's death detection keys on.
func TestReadMsgTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMsg(&buf, msgResult, InstanceResultWire{Query: "q1"}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readMsg(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated frame read cleanly")
	} else if !errors.Is(err, stream.ErrTruncated) {
		t.Fatalf("truncated frame error = %v, want ErrTruncated", err)
	}
}

// summaryTransport connects the coordinator to one scripted worker that
// accepts whatever it is told and answers the finish frame with a fixed
// summary body.
type summaryTransport struct{ summary string }

func (s summaryTransport) Connect(ctx context.Context, i int) (net.Conn, error) {
	coord, worker := net.Pipe()
	go func() {
		defer worker.Close()
		for {
			kind, _, err := readMsg(worker)
			if err != nil {
				return
			}
			if kind == msgFinish {
				writeMsg(worker, msgSummary, json.RawMessage(s.summary))
				return
			}
		}
	}()
	return coord, nil
}

func (summaryTransport) Close() error { return nil }

// TestForeignSummaryTelemetryFailsTheRun: a worker summary whose
// telemetry names a histogram bucket outside the layout (or a stage
// this build does not know) is a run error. It used to index the
// coordinator's bucket array with the number the worker sent and panic
// the process — vrserved with it.
func TestForeignSummaryTelemetryFailsTheRun(t *testing.T) {
	for _, summary := range []string{
		`{"telemetry":{"stages":{"decode":{"lat":{"488":1}}}}}`,
		`{"telemetry":{"stages":{"decode":{"lat":{"3":-1}}}}}`,
		`{"telemetry":{"stages":{"x":{"lat":{"3":1}}}}}`,
		`{"telemetry":{"scalars":{"vr_from_a_newer_build_total":1}}}`,
	} {
		// noscopelike does not support Q3: the batch scatters nothing and
		// the run goes straight to collecting summaries.
		_, _, err := Run(context.Background(), Plan{
			System: SystemSpec{Name: "noscopelike"},
			Scale:  1,
			Opt:    vcd.Options{Queries: []queries.QueryID{queries.Q3}, Mode: vcd.StreamingMode},
		}, Options{Shards: 1, Transport: summaryTransport{summary}, Heartbeat: 5 * time.Second})
		if err == nil || !strings.Contains(err.Error(), "bad message type") {
			t.Errorf("summary %s: Run returned %v, want a decode error", summary, err)
		}
	}
}

// TestCountersMatchShardRows ties Counters to the shard rows of the
// metrics table through their serialized forms: every counter the
// coordinator's set can hold appears under the same JSON key, with the
// same value, in Counters and in the telemetry's shard section — except
// workers (a size, not a counter) and conv_failures (a worker daemon's
// counter; no coordinator run has one).
func TestCountersMatchShardRows(t *testing.T) {
	base := metrics.Capture()
	var c coordinator
	n := int64(0)
	for id := metrics.ShardWorkerFailures; id <= metrics.ShardConvFailures; id++ {
		n++
		c.counters.Add(id, n)
	}
	section := func(v any, member string) map[string]int64 {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]int64
		if member != "" {
			var members map[string]json.RawMessage
			if err := json.Unmarshal(raw, &members); err != nil {
				t.Fatal(err)
			}
			raw = members[member]
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := section(c.tally(), "")
	want := section(metrics.Capture().Sub(base), "shard")
	if want["conv_failures"] != n || len(want) != int(n) {
		t.Fatalf("telemetry shard section = %v, want %d rows ending in conv_failures", want, n)
	}
	delete(want, "conv_failures")
	want["workers"] = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Counters = %v, shard rows = %v", got, want)
	}
}
