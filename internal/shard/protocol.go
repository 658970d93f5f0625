// Package shard implements the coordinator/worker execution plane that
// makes the benchmark's node count real: the 4·L query batch is
// partitioned deterministically across worker processes, each worker
// rebuilds its assigned instances locally (batches are pure functions
// of seed and dataset), executes them against its own engine and
// decoded cache, and streams per-instance results back; the coordinator
// gathers in global index order and merges a report byte-identical to a
// single-process run of the same seed/config (zero-fault case).
//
// The wire protocol rides the framed-stream transport shared with the
// RTP path (stream.WriteFramed/ReadFramed): every message is one frame
// of a type byte followed by a JSON body. The conversation is
//
//	coordinator → worker:  job (manifest) → assign* → finish
//	worker → coordinator:  result* → done (per assignment) →
//	                       summary (telemetry/cache roll-up) ; heartbeat
//	                       interleaves whenever an assignment is running
//
// and either side treats a truncated frame as a severed peer.
package shard

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vfs"
)

// Message type bytes.
const (
	msgJob       byte = 1 // coordinator → worker: job manifest
	msgAssign    byte = 2 // coordinator → worker: one query's index subset
	msgFinish    byte = 3 // coordinator → worker: run over, send summary
	msgResult    byte = 4 // worker → coordinator: one executed instance
	msgDone      byte = 5 // worker → coordinator: assignment complete
	msgSummary   byte = 6 // worker → coordinator: final roll-up (the ack)
	msgHeartbeat byte = 7 // worker → coordinator: liveness while executing
	msgError     byte = 8 // worker → coordinator: fatal worker error
)

// GenSpec regenerates a dataset from hyperparameters: generation is
// deterministic, so in-memory datasets shard by regeneration rather
// than by copying bytes across the wire. The spec is everything that
// shapes the stored bytes — the coordinator's own store is generated
// from the same value (Generate), so the two cannot drift.
type GenSpec struct {
	Scale    int     `json:"scale"`
	Width    int     `json:"width"`
	Height   int     `json:"height"`
	Duration float64 `json:"duration"`
	FPS      int     `json:"fps"`
	Seed     uint64  `json:"seed"`
	QP       int     `json:"qp"`
	Captions bool    `json:"captions"`
	TileRows int     `json:"tile_rows,omitempty"`
	TileCols int     `json:"tile_cols,omitempty"`
}

// Generate writes the spec's dataset into store. workers bounds
// generation parallelism (0 = one per CPU); bytes are identical at
// every count, which is why it is not part of the spec.
func (g GenSpec) Generate(store vfs.Store, workers int) error {
	_, err := vcg.Generate(vcity.Hyperparams{
		Scale: g.Scale, Width: g.Width, Height: g.Height,
		Duration: g.Duration, FPS: g.FPS, Seed: g.Seed,
	}, vcg.Options{
		Captions: g.Captions, QP: g.QP, Workers: workers,
		TileRows: g.TileRows, TileCols: g.TileCols,
	}, store)
	return err
}

// DatasetSpec tells a worker where its dataset comes from: a shared
// filesystem path (real multi-process topologies) or regeneration from
// hyperparameters (in-process pipe workers and tests). Exactly one
// field is set.
type DatasetSpec struct {
	Path string   `json:"path,omitempty"`
	Gen  *GenSpec `json:"gen,omitempty"`
}

// SystemSpec names the engine a worker instantiates, with the budgets
// the comparison experiments configure.
type SystemSpec struct {
	Name             string `json:"name"`
	ScannerBudget    int64  `json:"scanner_budget,omitempty"`
	ScannerHardLimit int64  `json:"scanner_hard_limit,omitempty"`
}

// JobSpec is the job manifest, the first frame of every worker
// conversation.
type JobSpec struct {
	Dataset DatasetSpec `json:"dataset"`
	System  SystemSpec  `json:"system"`
	// Opt is the coordinator's normalized run configuration, whole. Its
	// Mode tells the worker whether to stage result payloads and attach
	// them to result frames (write) or skip the copies, exactly as the
	// single-process driver skips persistence (streaming).
	Opt vcd.Options `json:"opt"`
	// Metrics tells remote workers to enable their telemetry registry
	// and report a wire delta in their summary. In-process workers share
	// the coordinator's registry and must not double-report.
	Metrics bool `json:"metrics,omitempty"`
	// Shard is this worker's index in the run, tagged onto its spans so
	// merged trace reports attribute work per worker.
	Shard int `json:"shard"`
	// HeartbeatNS is the liveness interval the coordinator enforces;
	// workers heartbeat at a third of it while executing.
	HeartbeatNS int64 `json:"heartbeat_ns"`
}

// Assignment is one query's index subset for one worker. Seq tags the
// assignment epoch: after a reassignment, stale results from a worker
// presumed dead are recognizable (same query, earlier seq) and
// deduplicated by index rather than double-counted.
type Assignment struct {
	Query   queries.QueryID `json:"query"`
	Indices []int           `json:"indices"`
	Seq     int             `json:"seq"`
	// Traces carries the coordinator-minted trace ID of each index
	// (parallel to Indices), present when metrics are enabled; the
	// worker echoes each on its result frame. IDs are deterministic, so
	// the worker executing an instance mints the same value itself.
	Traces []metrics.TraceID `json:"traces,omitempty"`
}

// ResultFile is one persisted result payload, named exactly as the
// single-process driver would name it.
type ResultFile struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// InstanceResultWire is one executed instance streaming back: the
// frame (assignment epoch, persisted payloads, global index) around the
// driver's own result, which crosses as itself. Its Trace echoes the
// instance's trace ID so the coordinator's gather spans join the
// worker's spans under one timeline.
type InstanceResultWire struct {
	Query string          `json:"query"`
	Seq   int             `json:"seq"`
	Files []ResultFile    `json:"files,omitempty"`
	Index int             `json:"index"`
	Trace metrics.TraceID `json:"trace,omitempty"`
	vcd.InstanceResult
}

// AssignmentDone closes one assignment.
type AssignmentDone struct {
	Query string `json:"query"`
	Seq   int    `json:"seq"`
}

// WorkerError reports a fatal worker-side failure (dataset load,
// unknown system, batch construction); the coordinator aborts the run,
// matching the single-process driver's behavior for the same error.
type WorkerError struct {
	Msg string `json:"msg"`
}

// writeMsg frames one protocol message: type byte + JSON body.
func writeMsg(w io.Writer, kind byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	pkt := make([]byte, 1+len(body))
	pkt[0] = kind
	copy(pkt[1:], body)
	return stream.WriteFramed(w, pkt)
}

// readMsg reads one framed protocol message.
func readMsg(r io.Reader) (byte, []byte, error) {
	pkt, err := stream.ReadFramed(r)
	if err != nil {
		return 0, nil, err
	}
	if len(pkt) == 0 {
		return 0, nil, fmt.Errorf("shard: empty protocol frame")
	}
	return pkt[0], pkt[1:], nil
}

// decode unmarshals a message body into v with a typed error.
func decode(kind byte, body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("shard: bad message type %d: %w", kind, err)
	}
	return nil
}
