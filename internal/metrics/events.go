package metrics

import "time"

// The event journal: a fixed-size lock-free ring (ring.go) of structured
// lifecycle events with process-monotonic sequence numbers. The shard
// plane records job/assignment/failure/recovery transitions here;
// /debug/events serves the ring with a ?since=seq cursor and run
// reports dump the interval's events alongside telemetry.

// Event kinds recorded by the shard plane.
const (
	EventJobSubmitted       = "job_submitted"
	EventShardAssigned      = "shard_assigned"
	EventHeartbeatMissed    = "heartbeat_missed"
	EventWorkerDead         = "worker_dead"
	EventInstanceReassigned = "instance_reassigned"
	EventDuplicateDropped   = "duplicate_dropped"
	EventMergeComplete      = "merge_complete"
	// EventConvFailed marks a worker-server conversation that ended in
	// an error rather than a clean finish/EOF (worker daemons only).
	EventConvFailed = "conversation_failed"
)

// Event kinds recorded by the vrserved control plane. Detail carries
// the job ID (the journal file name for a quarantine); Query carries
// the tenant.
const (
	EventServeJobQueued    = "serve_job_queued"
	EventServeJobStarted   = "serve_job_started"
	EventServeJobDone      = "serve_job_done"
	EventServeJobFailed    = "serve_job_failed"
	EventServeJobCancelled = "serve_job_cancelled"
	EventServeJobRejected  = "serve_job_rejected"
	// EventServeJobQuarantined marks a job journal entry that failed to
	// parse at daemon boot and was set aside as <name>.corrupt.
	EventServeJobQuarantined = "serve_job_quarantined"
)

// Event is one structured lifecycle event. Seq is assigned at record
// time and is strictly increasing in record order; TimeNS is the wall
// clock. Shard is the worker index the event concerns (-1 when none).
type Event struct {
	Seq    uint64  `json:"seq"`
	TimeNS int64   `json:"time_ns"`
	Kind   string  `json:"kind"`
	Shard  int     `json:"shard"`
	Query  string  `json:"query,omitempty"`
	Trace  TraceID `json:"trace,omitempty"`
	Count  int     `json:"count,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// eventRingSize bounds the journal; older events are overwritten once
// the ring wraps.
const eventRingSize = 1024

var eventRing = newRing[Event](eventRingSize)

// RecordEvent journals one lifecycle event, stamping its sequence
// number and wall-clock time, and returns the sequence number. No-op
// (returning 0) when instrumentation is disabled — the disabled path
// is the usual single atomic load.
func RecordEvent(e Event) uint64 {
	if !reg.enabled.Load() {
		return 0
	}
	e.Seq = eventRing.claim()
	e.TimeNS = time.Now().UnixNano()
	eventRing.publish(e.Seq, e)
	return e.Seq
}

// EventSeq returns the sequence number of the most recent event (0 when
// none have been recorded). Capture it before a run and pass it to
// EventsSince for the run's journal interval.
func EventSeq() uint64 { return eventRing.last() }

// EventsSince returns the journaled events with sequence numbers
// greater than since, in sequence order, and how many of them the
// cursor lost: only the last eventRingSize events are retrievable.
func EventsSince(since uint64) (events []Event, lost uint64) {
	return eventRing.span(since, eventRing.last())
}
