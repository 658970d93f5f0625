package shard

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

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
			Query: "q3", Index: 3, Seq: 2, ElapsedNS: 12345, Frames: 15,
			Err: "boom", Resource: true,
			Validated: &ValidationWire{Checked: true, PSNR: 31.5, Passed: true},
			Files:     []ResultFile{{Name: "result-q3-003-cam.vrmf", Data: []byte{1, 2, 3}}},
		}},
		{msgDone, AssignmentDone{Query: "q3", Seq: 2}},
		{msgSummary, WorkerSummary{Cache: metrics.CacheStats{Hits: 5, Misses: 2}}},
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
