// Package vcity implements Visual City: the pseudorandomly-generated,
// simulated metropolitan area that Visual Road captures video in. It
// stands in for the paper's CARLA + Unreal Engine substrate.
//
// A City is generated from the benchmark hyperparameters (scale factor
// L, resolution R, duration t, seed s). It is laid out as a disconnected
// set of tiles, each drawn uniformly with replacement from a pool of 72
// tiles (2 maps × 12 weather configurations × 3 traffic densities). Each
// tile carries 4 traffic cameras positioned 10–20 m above a roadway and
// 1 panoramic camera (four 120°-FOV sub-cameras) 5–10 m above a
// sidewalk.
//
// Agent motion is a pure function of simulation time, so any frame of
// any camera can be reconstructed at random — which is also how the
// simulator computes exact ground truth without manual annotation.
package vcity

import (
	"math"

	"repro/internal/stablehash"
)

// RNG is a splitmix64-based deterministic random number generator. It
// supports stream splitting so independent subsystems (tile layout,
// vehicle spawning, camera placement, …) draw from decorrelated streams
// derived from the single dataset seed, keeping generation reproducible
// regardless of evaluation order.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with s.
func NewRNG(s uint64) *RNG { return &RNG{state: s} }

// Uint64 returns the next 64 random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return stablehash.Mix(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vcity: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Split derives an independent generator from r's seed and a label,
// without advancing r. Identical (seed, label) pairs always produce
// identical streams.
func (r *RNG) Split(label string) *RNG {
	// Mix the label hash with the current state through one splitmix
	// round so sibling splits differ even for similar labels.
	return &RNG{state: stablehash.Mix(r.state + stablehash.String(label)*0x9e3779b97f4a7c15)}
}

// SplitN derives an independent generator from r's seed and an index.
func (r *RNG) SplitN(label string, n int) *RNG {
	s := r.Split(label)
	s.state += uint64(n) * 0xd1342543de82ef95
	return s
}

// Gaussian returns a normally-distributed value with the given mean and
// standard deviation (Box–Muller).
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}
