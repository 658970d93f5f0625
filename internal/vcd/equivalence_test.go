package vcd_test

import (
	"testing"

	"repro/internal/difftest"
)

// The driver's equivalence contracts, each the pinned seeds of the
// differential harness that draw it, held to the in-process whole-clip
// reference run of their plan.

// TestRunWorkersEquivalence: Sequential, Workers 1 and 8, and 8 workers
// at GOMAXPROCS=1 produce the same output, and the decoded cache is
// untouched in sequential mode and used otherwise.
func TestRunWorkersEquivalence(t *testing.T) {
	for _, engine := range []string{"scannerlike", "lightdblike"} {
		t.Run(engine, func(t *testing.T) {
			difftest.Run(t, engine+" sequential", engine+" workers=1", engine+" workers=8", engine+" workers=8/gomaxprocs=1")
		})
	}
}

// TestRunRangeDecodeEquivalence: serving Q1's frame window by range
// decode matches decoding the whole clip and slicing it, and asks the
// decoded cache for no more frames.
func TestRunRangeDecodeEquivalence(t *testing.T) {
	for _, engine := range []string{"scannerlike", "lightdblike", "noscopelike"} {
		t.Run(engine, func(t *testing.T) {
			difftest.Run(t, engine+" selective decode on 1x1", engine+" whole-clip decode on 1x1")
		})
	}
}

// TestRunTileDecodeEquivalence: on a tiled dataset, serving Q1's (frame
// window × ROI) rectangle by tile-subset decode matches the whole-clip
// reference. Each engine reaches the tiles by a different route.
func TestRunTileDecodeEquivalence(t *testing.T) {
	for _, engine := range []string{"scannerlike", "lightdblike", "noscopelike"} {
		t.Run("2x2/"+engine, func(t *testing.T) {
			difftest.Run(t, engine+" selective decode on 2x2", engine+" whole-clip decode on 2x2")
		})
	}
	t.Run("3x2/noscopelike", func(t *testing.T) { difftest.Run(t, "noscopelike on 3x2") })
}

// TestTelemetryModeInvariance: metrics on, sequential and at 8 workers,
// leave the output unchanged, and the request stages count the same.
func TestTelemetryModeInvariance(t *testing.T) {
	for _, engine := range []string{"scannerlike", "lightdblike"} {
		t.Run(engine, func(t *testing.T) {
			difftest.Run(t, engine+" stage counts sequential=workers=8")
		})
	}
}

// TestOnlineEquivalence: a zero-fault online run, its inputs streamed to
// LightDB-like over the pipe or the RTP transport, writes the offline
// reference's canonical report, verdicts and result bytes.
func TestOnlineEquivalence(t *testing.T) { difftest.Run(t, "online/pipe", "online/rtp") }
