package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/shard"
)

// ShardPoint is one worker count of the sharded-execution sweep.
type ShardPoint struct {
	Shards   int
	Elapsed  time.Duration
	Frames   int
	Counters shard.Counters
}

// FPS is the batch throughput at this point.
func (p ShardPoint) FPS() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Frames) / p.Elapsed.Seconds()
}

// ShardSweep measures one system's full query batch through the
// coordinator/worker plane at increasing worker counts over the same
// dataset — the execution counterpart of Figure 9's generator node
// sweep. Workers run in-process over pipe transports, so the sweep
// exercises the full wire protocol without sockets; results are
// identical at every point (the shard plane's determinism contract) and
// only wall-clock time varies with available cores.
func ShardSweep(cfg CompareConfig, system string, counts []int) ([]ShardPoint, error) {
	cfg = cfg.withDefaults()
	store, err := GenerateStore(cfg)
	if err != nil {
		return nil, err
	}
	spec := shard.SystemSpec{Name: system}
	if system == "scannerlike" {
		spec.ScannerBudget = cfg.ScannerMemoryBudget
		spec.ScannerHardLimit = cfg.ScannerHardLimit
	}
	var out []ShardPoint
	for _, n := range counts {
		report, counters, err := shard.Run(context.Background(), shard.Plan{
			Store:  store,
			System: spec,
			Scale:  cfg.Scale,
			Opt:    cfg.runOptions(),
		}, shard.Options{Shards: n})
		if err != nil {
			return nil, fmt.Errorf("core: shard sweep at %d workers: %w", n, err)
		}
		p := ShardPoint{Shards: n, Elapsed: report.Elapsed, Counters: *counters}
		for _, qr := range report.Queries {
			p.Frames += qr.Frames
		}
		out = append(out, p)
	}
	return out, nil
}
