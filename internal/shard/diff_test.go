package shard_test

import (
	"testing"

	"repro/internal/difftest"
)

// TestDifferential runs every pinned seed of the differential harness:
// each draws a tile grid, an engine and query set, a decode layer, an
// execution mode, GOMAXPROCS, metrics, a topology and a fault, and its
// run must match its reference run byte for byte. A failure prints the
// seed and its draw on one line; `go test -run 'TestDifferential/seed=N$'
// ./internal/shard` reproduces it.
func TestDifferential(t *testing.T) { difftest.Run(t) }

// TestDifferentialCoverage draws the pinned seeds without running them
// and wants every combination the hand-written suites the harness
// replaced ran, on the queries they ran it on.
func TestDifferentialCoverage(t *testing.T) {
	got := difftest.Coverage(difftest.Seeds)
	for _, c := range difftest.WantCoverage {
		if len(got[c]) == 0 {
			t.Errorf("no pinned seed draws %s", c)
		}
	}
}

// The shard plane's contracts, each the pinned seeds that draw it.

// TestShardEquivalence: a pipe run on 1, 2 or 4 shards matches the
// in-process reference, with one worker per shard and no degradation.
func TestShardEquivalence(t *testing.T) { difftest.Run(t, "pipe/1", "pipe/2", "pipe/4") }

// TestShardTCPTransport: the same over TCP to two ListenWorkers.
func TestShardTCPTransport(t *testing.T) { difftest.Run(t, "tcp/2") }

// TestShardWorkerDeathRecovers: a worker cut mid-run is detected and its
// instances retried on a survivor, and the output does not change.
func TestShardWorkerDeathRecovers(t *testing.T) { difftest.Run(t, "kill worker metrics=false") }

// TestShardEventJournalOnWorkerDeath: with metrics on, the journal
// audits each reassignment after the worker's death.
func TestShardEventJournalOnWorkerDeath(t *testing.T) { difftest.Run(t, "kill worker metrics=true") }

// TestShardTraceRoundTripPipe and TestShardTraceRoundTripTCP: a traced
// sharded run carries one timeline per instance under its deterministic
// trace ID, and an ordered event journal, over either transport.
func TestShardTraceRoundTripPipe(t *testing.T) { difftest.Run(t, "metrics=true pipe") }

func TestShardTraceRoundTripTCP(t *testing.T) { difftest.Run(t, "metrics=true tcp") }
