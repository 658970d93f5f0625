package queries

import (
	"fmt"
	"strings"

	"repro/internal/vcity"
	"repro/internal/vtt"
)

// QueryID identifies a benchmark query (microbenchmarks Q1–Q6 and
// composites Q7–Q10).
type QueryID string

// The benchmark queries.
const (
	Q1  QueryID = "Q1"    // Select: spatial & temporal crop
	Q2a QueryID = "Q2(a)" // Transform: grayscale
	Q2b QueryID = "Q2(b)" // Transform: Gaussian blur
	Q2c QueryID = "Q2(c)" // Transform: object-detection boxes
	Q2d QueryID = "Q2(d)" // Transform: background masking
	Q3  QueryID = "Q3"    // Subquery: tiled re-encode
	Q4  QueryID = "Q4"    // Upsample (bilinear)
	Q5  QueryID = "Q5"    // Downsample
	Q6a QueryID = "Q6(a)" // Union: overlay bounding boxes
	Q6b QueryID = "Q6(b)" // Union: overlay WebVTT captions
	Q7  QueryID = "Q7"    // Composite: object detection pipeline
	Q8  QueryID = "Q8"    // Composite: vehicle tracking by plate
	Q9  QueryID = "Q9"    // VR: panoramic stitching
	Q10 QueryID = "Q10"   // VR: tile-based encoding
)

// AllQueries lists every benchmark query in submission order (the VCD
// submits batches in query order: Q1 before Q2, and so on).
var AllQueries = []QueryID{Q1, Q2a, Q2b, Q2c, Q2d, Q3, Q4, Q5, Q6a, Q6b, Q7, Q8, Q9, Q10}

// MicroQueries lists the microbenchmark subset.
var MicroQueries = []QueryID{Q1, Q2a, Q2b, Q2c, Q2d, Q3, Q4, Q5, Q6a, Q6b}

// queryNames maps every spelling ParseList looks up first — the short
// name ("Q2a") and the canonical one ("Q2(a)"), each as written and
// lower-cased — to its query. It is built once: vrserved parses a list
// per submitted job.
var queryNames = func() map[string]QueryID {
	m := make(map[string]QueryID, 4*len(AllQueries))
	for _, q := range AllQueries {
		for _, name := range []string{string(q), strings.NewReplacer("(", "", ")", "").Replace(string(q))} {
			m[name] = q
			m[strings.ToLower(name)] = q
		}
	}
	return m
}()

// ParseList maps a comma-separated list of short names like "Q2a" (or
// canonical names like "Q2(a)") to query IDs, case-insensitively. An
// empty string means "all" and returns nil, the convention every
// options struct treats as the full suite. Names spelled as listed or
// in lower case cost no allocation beyond the returned slice.
func ParseList(s string) ([]QueryID, error) {
	if s == "" {
		return nil, nil
	}
	out := make([]QueryID, 0, strings.Count(s, ",")+1)
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		name := strings.TrimSpace(part)
		q, ok := queryNames[name]
		if !ok {
			q, ok = queryNames[strings.ToLower(name)]
		}
		if !ok {
			return nil, fmt.Errorf("queries: unknown query %q", part)
		}
		out = append(out, q)
	}
	return out, nil
}

// Params is the union of per-query free parameters (Table 3). A query
// instance references exactly the fields its query uses.
type Params struct {
	// Q1: cropping rectangle and temporal range.
	X1, Y1, X2, Y2 int
	T1, T2         float64 // seconds

	// Q2(b): Gaussian kernel size d ∈ [3, 20].
	D int

	// Q2(c): detection algorithm and target classes.
	Algorithm string // "yolov2"
	Classes   []vcity.ObjectClass

	// Q2(d): mean-filter window m ∈ [2, 60] and threshold ε ∈ (0, 1).
	M       int
	Epsilon float64

	// Q3: region size and per-region bitrates (bits/s).
	DX, DY   int
	Bitrates []int

	// Q4, Q5: scale factors α, β ∈ {2^n | n ∈ [1..5]}.
	Alpha, Beta int

	// Q6(b): caption document.
	Captions *vtt.Document

	// Q8: target license plate.
	Plate string

	// Q10: per-tile bitrates (9 tiles) and client resolution.
	TileBitrates []int
	ClientW      int
	ClientH      int
}

// Validate checks the parameters against the domains of Table 3 for the
// given query and input resolution/duration.
func (p *Params) Validate(q QueryID, rx, ry int, duration float64) error {
	switch q {
	case Q1:
		if !(0 <= p.X1 && p.X1 < p.X2 && p.X2 <= rx) {
			return fmt.Errorf("queries: Q1 x-range [%d, %d) outside [0, %d]", p.X1, p.X2, rx)
		}
		if !(0 <= p.Y1 && p.Y1 < p.Y2 && p.Y2 <= ry) {
			return fmt.Errorf("queries: Q1 y-range [%d, %d) outside [0, %d]", p.Y1, p.Y2, ry)
		}
		if !(0 <= p.T1 && p.T1 < p.T2 && p.T2 <= duration+1e-9) {
			return fmt.Errorf("queries: Q1 t-range [%g, %g) outside [0, %g]", p.T1, p.T2, duration)
		}
	case Q2b:
		if p.D < 3 || p.D > 20 {
			return fmt.Errorf("queries: Q2(b) kernel size %d outside [3, 20]", p.D)
		}
	case Q2c:
		if p.Algorithm != "yolov2" {
			return fmt.Errorf("queries: Q2(c) requires the specified algorithm (yolov2), got %q", p.Algorithm)
		}
		if len(p.Classes) == 0 {
			return fmt.Errorf("queries: Q2(c) requires at least one object class")
		}
	case Q2d:
		if p.M < 2 || p.M > 60 {
			return fmt.Errorf("queries: Q2(d) window %d outside [2, 60]", p.M)
		}
		if p.Epsilon <= 0 || p.Epsilon >= 1 {
			return fmt.Errorf("queries: Q2(d) epsilon %g outside (0, 1)", p.Epsilon)
		}
	case Q3:
		if p.DX <= 0 || p.DY <= 0 || p.DX > rx || p.DY > ry {
			return fmt.Errorf("queries: Q3 region %dx%d invalid for %dx%d input", p.DX, p.DY, rx, ry)
		}
		if len(p.Bitrates) == 0 {
			return fmt.Errorf("queries: Q3 requires bitrates")
		}
	case Q4, Q5:
		if !powerOfTwoIn(p.Alpha, 2, 32) || !powerOfTwoIn(p.Beta, 2, 32) {
			return fmt.Errorf("queries: %s scale factors (%d, %d) must be 2^n, n in [1..5]", q, p.Alpha, p.Beta)
		}
	case Q6b:
		if p.Captions == nil {
			return fmt.Errorf("queries: Q6(b) requires a caption document")
		}
	case Q8:
		if len(p.Plate) != 6 {
			return fmt.Errorf("queries: Q8 plate %q must have 6 characters", p.Plate)
		}
	case Q10:
		if len(p.TileBitrates) != 9 {
			return fmt.Errorf("queries: Q10 requires 9 tile bitrates, got %d", len(p.TileBitrates))
		}
		if p.ClientW <= 0 || p.ClientH <= 0 {
			return fmt.Errorf("queries: Q10 client resolution %dx%d invalid", p.ClientW, p.ClientH)
		}
	}
	return nil
}

func powerOfTwoIn(v, lo, hi int) bool {
	if v < lo || v > hi {
		return false
	}
	return v&(v-1) == 0
}
