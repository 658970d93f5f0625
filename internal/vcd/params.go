// Package vcd implements the Visual City Driver: the benchmark harness
// that stages input videos for a VDBMS, submits query batches (4·L
// instances per query, parameters drawn uniformly at random from the
// Table 3 domains), measures execution, and validates results by frame
// comparison (PSNR ≥ 40 dB against the reference implementation) or
// semantic comparison (against the simulation's scene geometry).
package vcd

import (
	"fmt"

	"repro/internal/queries"
	"repro/internal/vcity"
	"repro/internal/vtt"
)

// ParamSampler draws query-instance parameters uniformly from the
// domains of Table 3 for a given dataset configuration. The sampler is
// seeded independently of the dataset so batches are reproducible.
type ParamSampler struct {
	rng *vcity.RNG
	rx  int
	ry  int
	dur float64
	// MaxUpsamplePixels guards Q4 parameter draws at model scale: α, β
	// pairs whose output frame would exceed this pixel count are
	// redrawn. Zero disables the guard (full paper domain).
	MaxUpsamplePixels int
}

// NewParamSampler returns a sampler for inputs of resolution (rx, ry)
// and the given duration (seconds).
func NewParamSampler(seed uint64, rx, ry int, duration float64) *ParamSampler {
	return &ParamSampler{rng: vcity.NewRNG(seed ^ 0x5a5a1234), rx: rx, ry: ry, dur: duration}
}

// Sample draws one parameter set for the query. ctx supplies the
// query-specific inputs needed for sampling (e.g. the caption document
// for Q6(b), the tile's plates for Q8).
func (s *ParamSampler) Sample(q queries.QueryID, ctx SampleContext) (queries.Params, error) {
	var p queries.Params
	switch q {
	case queries.Q1:
		// Rectangles below 16 px per side are redrawn: the container
		// codec needs a minimally meaningful frame, and sub-16px crops
		// are degenerate for every system under test.
		for {
			x1, x2 := s.orderedPair(s.rx)
			y1, y2 := s.orderedPair(s.ry)
			if x2-x1 >= 16 && y2-y1 >= 16 {
				p.X1, p.X2, p.Y1, p.Y2 = x1, x2, y1, y2
				break
			}
		}
		for {
			t1 := s.rng.Range(0, s.dur)
			t2 := s.rng.Range(0, s.dur)
			if t2 < t1 {
				t1, t2 = t2, t1
			}
			if t2-t1 >= 0.1 {
				p.T1, p.T2 = t1, t2
				break
			}
		}
	case queries.Q2b:
		p.D = 3 + s.rng.Intn(18) // [3, 20]
	case queries.Q2c:
		p.Algorithm = "yolov2"
		p.Classes = []vcity.ObjectClass{s.randomClass()}
	case queries.Q2d:
		p.M = 2 + s.rng.Intn(59) // [2, 60]
		p.Epsilon = s.rng.Range(0.02, 0.5)
	case queries.Q3:
		p.DX = s.rx / (1 << (1 + s.rng.Intn(3))) // Rx / 2^n, n ∈ [1..3]
		p.DY = s.ry / (1 << (1 + s.rng.Intn(3)))
		if p.DX < 16 {
			p.DX = 16
		}
		if p.DY < 16 {
			p.DY = 16
		}
		n := (s.rx/p.DX + 1) * (s.ry/p.DY + 1)
		p.Bitrates = make([]int, n)
		for i := range p.Bitrates {
			p.Bitrates[i] = 1 << (16 + s.rng.Intn(7)) // 2^n, n ∈ [16..22] bits/s
		}
	case queries.Q4:
		for {
			p.Alpha = 1 << (1 + s.rng.Intn(5)) // 2^n, n ∈ [1..5]
			p.Beta = 1 << (1 + s.rng.Intn(5))
			if s.MaxUpsamplePixels == 0 ||
				s.rx*p.Alpha*s.ry*p.Beta <= s.MaxUpsamplePixels {
				break
			}
		}
	case queries.Q5:
		p.Alpha = 1 << (1 + s.rng.Intn(5))
		p.Beta = 1 << (1 + s.rng.Intn(5))
	case queries.Q6a:
		p.Algorithm = "yolov2"
		p.Classes = []vcity.ObjectClass{vcity.ClassVehicle, vcity.ClassPedestrian}
	case queries.Q6b:
		if ctx.Captions == nil {
			return p, fmt.Errorf("vcd: Q6(b) input has no caption track")
		}
		p.Captions = ctx.Captions
	case queries.Q7:
		p.Algorithm = "yolov2"
		p.Classes = []vcity.ObjectClass{vcity.ClassVehicle, vcity.ClassPedestrian}
		p.M = 2 + s.rng.Intn(14)
		p.Epsilon = s.rng.Range(0.05, 0.3)
	case queries.Q8:
		if len(ctx.Plates) == 0 {
			return p, fmt.Errorf("vcd: Q8 requires candidate plates")
		}
		p.Plate = ctx.Plates[s.rng.Intn(len(ctx.Plates))]
	case queries.Q9:
		// Q9 has no free parameters; the panoramic group is the input.
	case queries.Q10:
		p.TileBitrates = make([]int, 9)
		bh := 1 << (19 + s.rng.Intn(4)) // high-quality bitrate
		bl := bh >> 3                   // low-quality bitrate
		nHigh := 1 + s.rng.Intn(4)
		for i := range p.TileBitrates {
			if i < nHigh {
				p.TileBitrates[i] = bh
			} else {
				p.TileBitrates[i] = bl
			}
		}
		// Client resolutions mimic common headset panels.
		res := [][2]int{{ctx.InputW / 2, ctx.InputH / 2}, {ctx.InputW * 3 / 4, ctx.InputH * 3 / 4}}
		r := res[s.rng.Intn(len(res))]
		p.ClientW, p.ClientH = max(r[0], 16), max(r[1], 16)
	}
	return p, nil
}

// SampleContext carries the per-instance inputs parameter sampling
// depends on.
type SampleContext struct {
	Captions *vtt.Document
	Plates   []string
	InputW   int
	InputH   int
}

// orderedPair draws 0 ≤ a < b ≤ n.
func (s *ParamSampler) orderedPair(n int) (int, int) {
	a := s.rng.Intn(n)
	b := s.rng.Intn(n + 1)
	if b < a {
		a, b = b, a
	}
	if a == b {
		b = a + 1
	}
	return a, b
}

func (s *ParamSampler) randomClass() vcity.ObjectClass {
	if s.rng.Bool(0.5) {
		return vcity.ClassPedestrian
	}
	return vcity.ClassVehicle
}
