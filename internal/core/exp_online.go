package core

import (
	"context"
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

// OnlinePoint is one (query, fault-rate) cell of the online resilience
// sweep.
type OnlinePoint struct {
	Query     queries.QueryID
	FaultRate float64
	Report    *vcd.OnlineReport
}

// OnlineResilience runs the online query subset on the LightDB-like
// engine, the one bundled engine that consumes a live stream, over RTP
// at each fault rate and reports the achieved rate and degradation
// accounting. The stream is paced on a fake clock, so the sweep
// measures processing throughput and fault handling, not wall-clock
// sleeping; schedules are keyed by cfg.Seed and reproduce exactly.
func OnlineResilience(cfg CompareConfig, rates []float64, qs []queries.QueryID) ([]OnlinePoint, error) {
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
	sys := lightdblike.New(lightdblike.Options{})
	var out []OnlinePoint
	for _, rate := range rates {
		for _, q := range qs {
			insts, err := vcd.BuildBatch(ds, q, 1, opt)
			if err != nil {
				return nil, fmt.Errorf("core: online batch %s: %w", q, err)
			}
			inst := insts[0]
			var plan *stream.FaultPlan
			if rate > 0 {
				plan = &stream.FaultPlan{
					Seed:     cfg.Seed,
					Camera:   inst.Inputs[0].Env.Camera.ID,
					DropRate: rate,
				}
			}
			rep, err := vcd.RunOnlineOpts(context.Background(), sys, inst, vcd.OnlineOptions{
				Transport: vcd.TransportRTP,
				Clock:     stream.NewFakeClock(time.Unix(0, 0)),
				Faults:    plan,
				Retry:     stream.RetryPolicy{Seed: cfg.Seed},
			})
			if err != nil {
				return nil, fmt.Errorf("core: online %s at %.0f%%: %w", q, rate*100, err)
			}
			out = append(out, OnlinePoint{Query: q, FaultRate: rate, Report: rep})
		}
	}
	return out, nil
}
