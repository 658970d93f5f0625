package core

import (
	"fmt"
	"time"

	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vcd"
	"repro/internal/vdbms/lightdblike"
)

// OnlineFaultRates is the default fault-rate sweep for the online
// resilience experiment: a clean channel, then 1% and 5% packet drop.
var OnlineFaultRates = []float64{0, 0.01, 0.05}

// OnlineResilience runs the online query subset on the LightDB-like
// engine, the one bundled engine that consumes a live stream, as one
// online vcd.Run over RTP per fault rate, and returns the runs' reports
// in rate order: each batch's achieved rate and summed degradation
// accounting. Every stream is paced on a fake clock of its own, so the
// sweep measures processing throughput and fault handling, not
// wall-clock sleeping; schedules are keyed by cfg.Seed and each
// stream's camera, and reproduce exactly.
func OnlineResilience(cfg CompareConfig, rates []float64, qs []queries.QueryID) ([]*vcd.RunReport, error) {
	cfg = cfg.withDefaults()
	if len(rates) == 0 {
		rates = OnlineFaultRates
	}
	if len(qs) == 0 {
		qs = []queries.QueryID{queries.Q1, queries.Q2a, queries.Q5}
	}
	ds, err := GenerateDataset(cfg)
	if err != nil {
		return nil, err
	}
	opt := cfg.runOptions()
	opt.Queries = qs
	sys := lightdblike.New(lightdblike.Options{})
	var out []*vcd.RunReport
	for _, rate := range rates {
		o := &vcd.OnlineOptions{
			Transport: vcd.TransportRTP,
			Clock:     func() stream.Clock { return stream.NewFakeClock(time.Unix(0, 0)) },
			Retry:     stream.RetryPolicy{Seed: cfg.Seed},
		}
		if rate > 0 {
			o.Faults = &stream.FaultPlan{Seed: cfg.Seed, DropRate: rate}
		}
		opt.Online = o
		rep, err := vcd.Run(ds, sys, opt)
		if err != nil {
			return nil, fmt.Errorf("core: online at %.0f%%: %w", rate*100, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
