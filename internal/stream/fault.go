package stream

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/stablehash"
)

// FaultPlan is a deterministic schedule of transport faults. Every
// decision is a pure function of (Seed, Camera, fault kind, event
// index) through a splitmix64 mix — the same PRNG family the city
// generator uses — so two runs with the same plan produce byte-identical
// fault schedules regardless of timing, goroutine interleaving, or
// wall-clock speed. A failure observed at one fault rate is therefore a
// replayable test fixture, not a flake.
//
// Packet-level faults (drop, reorder, corrupt, cut) apply to the RTP
// transport; stalls apply to pipe writes; dial failures apply to the
// client's connection attempts. A nil or zero plan injects nothing.
type FaultPlan struct {
	// Seed keys the fault schedule; combined with Camera so each
	// camera's stream degrades independently under one benchmark seed.
	Seed   uint64
	Camera string

	// DropRate is the per-packet probability an RTP packet is discarded
	// in transit. Sequence numbers still advance, so the receiver
	// observes a gap.
	DropRate float64
	// ReorderRate is the per-packet probability a packet is held back
	// and transmitted after its successor (seen as out-of-order
	// sequence numbers downstream).
	ReorderRate float64
	// CorruptRate is the per-packet probability one payload byte is
	// bit-flipped in transit; headers stay intact so the damage surfaces
	// in the decoder, not the framing.
	CorruptRate float64

	// StallRate is the per-frame probability the pipe producer stalls
	// for Stall before writing (a slow-disk / scheduling hiccup model).
	StallRate float64
	// Stall is the injected stall duration (default 50ms when StallRate
	// is set).
	Stall time.Duration

	// CutAtPacket, when positive, severs the connection mid-length-
	// prefix on the CutAtPacket'th framed write (1-based): the receiver
	// sees a partial header — a truncation, never a clean EOF.
	CutAtPacket int

	// DialFailures makes the first N connection attempts fail, forcing
	// the client through its retry/backoff path.
	DialFailures int
}

// Active reports whether the plan injects any fault at all.
func (p *FaultPlan) Active() bool {
	if p == nil {
		return false
	}
	return p.DropRate > 0 || p.ReorderRate > 0 || p.CorruptRate > 0 ||
		p.StallRate > 0 || p.CutAtPacket > 0 || p.DialFailures > 0
}

// mix64 is one splitmix64 round, the step vcity.RNG takes.
func mix64(x uint64) uint64 { return stablehash.Mix(x + 0x9e3779b97f4a7c15) }

// roll returns a uniform value in [0, 1) for the index'th event of the
// given fault kind, independent across kinds and indices.
func (p *FaultPlan) roll(kind string, index int) float64 {
	h := mix64(p.Seed ^ stablehash.String(p.Camera) ^ stablehash.String(kind) ^ uint64(index)*0xd1342543de82ef95)
	return float64(h>>11) / (1 << 53)
}

// DropPacket reports whether packet i is lost in transit.
func (p *FaultPlan) DropPacket(i int) bool {
	if p == nil || p.DropRate <= 0 {
		return false
	}
	return p.roll("drop", i) < p.DropRate
}

// ReorderPacket reports whether packet i is held and sent after its
// successor.
func (p *FaultPlan) ReorderPacket(i int) bool {
	if p == nil || p.ReorderRate <= 0 {
		return false
	}
	return p.roll("reorder", i) < p.ReorderRate
}

// CorruptPacket reports whether packet i's payload is damaged and, if
// so, a deterministic byte offset selector (callers take it modulo the
// payload length).
func (p *FaultPlan) CorruptPacket(i int) (pos int, ok bool) {
	if p == nil || p.CorruptRate <= 0 {
		return 0, false
	}
	if p.roll("corrupt", i) >= p.CorruptRate {
		return 0, false
	}
	return int(mix64(p.Seed^stablehash.String(p.Camera)^stablehash.String("corrupt-pos")^uint64(i)) >> 33), true
}

// CutPacket reports whether the i'th framed write (0-based) is the one
// the plan severs mid-header.
func (p *FaultPlan) CutPacket(i int) bool {
	return p != nil && p.CutAtPacket > 0 && i == p.CutAtPacket-1
}

// StallBefore reports whether the producer stalls before writing frame
// i to the pipe, and for how long.
func (p *FaultPlan) StallBefore(i int) (time.Duration, bool) {
	if p == nil || p.StallRate <= 0 {
		return 0, false
	}
	if p.roll("stall", i) >= p.StallRate {
		return 0, false
	}
	d := p.Stall
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	return d, true
}

// FailDial reports whether connection attempt i (0-based) is made to
// fail.
func (p *FaultPlan) FailDial(i int) bool {
	return p != nil && i < p.DialFailures
}

// maxStallMS is the longest stall, in milliseconds, that a
// time.Duration holds.
const maxStallMS = math.MaxInt64 / int64(time.Millisecond)

// ParseFaultSpec builds a plan from a comma-separated k=v spec, e.g.
// "drop=0.01,reorder=0.005,corrupt=0.001,stall=0.02,cut=12,dial=2".
// A bare number is shorthand for drop=<n>. An empty spec returns nil
// (no faults).
func ParseFaultSpec(spec string, seed uint64, camera string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &FaultPlan{Seed: seed, Camera: camera}
	if _, err := strconv.ParseFloat(spec, 64); err == nil {
		spec = "drop=" + spec
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("stream: fault spec %q: want key=value", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "drop", "reorder", "corrupt", "stall":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
				return nil, fmt.Errorf("stream: fault spec %s=%q: want a rate in [0,1]", key, val)
			}
			switch key {
			case "drop":
				p.DropRate = f
			case "reorder":
				p.ReorderRate = f
			case "corrupt":
				p.CorruptRate = f
			case "stall":
				p.StallRate = f
			}
		case "stallms":
			ms, err := strconv.ParseInt(val, 10, 64)
			if err != nil || ms < 0 || ms > maxStallMS {
				return nil, fmt.Errorf("stream: fault spec stallms=%q: want an integer in [0,%d]", val, maxStallMS)
			}
			p.Stall = time.Duration(ms) * time.Millisecond
		case "cut":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("stream: fault spec cut=%q: want a packet index ≥ 0", val)
			}
			p.CutAtPacket = n
		case "dial":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("stream: fault spec dial=%q: want a failure count ≥ 0", val)
			}
			p.DialFailures = n
		default:
			return nil, fmt.Errorf("stream: unknown fault key %q (have drop, reorder, corrupt, stall, stallms, cut, dial)", key)
		}
	}
	return p, nil
}

// ForCamera returns a copy of the plan keyed to the given camera, so a
// single CLI-level spec yields decorrelated per-stream schedules.
func (p *FaultPlan) ForCamera(camera string) *FaultPlan {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Camera = camera
	return &cp
}
