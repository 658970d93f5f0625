// Package alpr implements the simulated license-plate recognizer that
// stands in for OpenALPR in query Q8 (vehicle tracking). Recognition is
// a two-stage pipeline, like real ALPR systems:
//
//  1. Candidate extraction — the plate region is sampled from the
//     actual rendered frame pixels.
//  2. Glyph recognition — each of the six character cells is template-
//     matched against the renderer's own 5×7 font.
//
// Template matching performs real pixel work (so ALPR-bearing queries
// carry realistic cost), and genuinely reads the glyphs when the plate's
// projection is large enough. For plates between the geometric
// identifiability threshold and the matcher's legibility threshold, the
// recognizer consults the simulation oracle — standing in for the
// stronger OCR a production ALPR achieves on small plates (documented
// substitution; see DESIGN.md).
package alpr

import (
	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/vcity"
	"repro/internal/video"
)

// legibleWidth is the projected plate width (pixels) above which the
// template matcher alone is reliable.
const legibleWidth = 42

// matchThreshold is the minimum mean template agreement for a read to
// be accepted.
const matchThreshold = 0.70

// Recognizer recognizes license plates in frames.
type Recognizer struct {
	// Alphabet is the glyph set considered during template matching.
	Alphabet string
}

// New returns a recognizer over the Visual City plate alphabet.
func New() *Recognizer {
	return &Recognizer{Alphabet: "ABCDEFGHJKLMNPRSTUVWXYZ0123456789"}
}

// ReadRegion template-matches the plate text within the given frame
// region. It returns the best six-character read and its mean match
// score in [0, 1].
func (r *Recognizer) ReadRegion(f *video.Frame, box geom.Rect) (string, float64) {
	img := geom.Rect{MinX: 0, MinY: 0, MaxX: float64(f.W), MaxY: float64(f.H)}
	box = box.Clip(img)
	if box.W() < 6 || box.H() < 3 {
		return "", 0
	}
	// Reproduce the renderer's plate layout: margins then 6 cells of
	// (GlyphW+1)×GlyphH texels.
	const chars = 6
	marginU, marginV := 0.04, 0.12
	innerW := box.W() * (1 - 2*marginU)
	innerH := box.H() * (1 - 2*marginV)
	x0 := box.MinX + box.W()*marginU
	y0 := box.MinY + box.H()*marginV

	// The plate background is bright and glyphs dark; threshold at the
	// midpoint of the region's luma range.
	minL, maxL := 255, 0
	sampleLuma := func(px, py float64) int {
		xi := geom.ClampInt(int(px), 0, f.W-1)
		yi := geom.ClampInt(int(py), 0, f.H-1)
		return int(f.Y[yi*f.W+xi])
	}
	for sy := 0; sy < 12; sy++ {
		for sx := 0; sx < 48; sx++ {
			l := sampleLuma(x0+innerW*(float64(sx)+0.5)/48, y0+innerH*(float64(sy)+0.5)/12)
			if l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
		}
	}
	if maxL-minL < 30 {
		return "", 0 // no glyph contrast in the region
	}
	thresh := (minL + maxL) / 2

	out := make([]byte, 0, chars)
	total := 0.0
	cellW := innerW / chars
	for ci := 0; ci < chars; ci++ {
		// Sample the cell at the glyph grid (+1 column of spacing).
		var dark [render.GlyphW][render.GlyphH]bool
		for gy := 0; gy < render.GlyphH; gy++ {
			for gx := 0; gx < render.GlyphW; gx++ {
				px := x0 + cellW*float64(ci) + cellW*(float64(gx)+0.5)/(render.GlyphW+1)
				py := y0 + innerH*(float64(gy)+0.5)/render.GlyphH
				dark[gx][gy] = sampleLuma(px, py) < thresh
			}
		}
		bestCh, bestScore := byte('?'), -1.0
		for i := 0; i < len(r.Alphabet); i++ {
			ch := r.Alphabet[i]
			agree := 0
			for gy := 0; gy < render.GlyphH; gy++ {
				for gx := 0; gx < render.GlyphW; gx++ {
					if render.GlyphBit(rune(ch), gx, gy) == dark[gx][gy] {
						agree++
					}
				}
			}
			score := float64(agree) / (render.GlyphW * render.GlyphH)
			if score > bestScore {
				bestScore, bestCh = score, ch
			}
		}
		out = append(out, bestCh)
		total += bestScore
	}
	return string(out), total / chars
}

// Match reports whether the plate of vehicle v is identifiable as
// `plate` in the frame captured by cam at time t. Geometric
// identifiability (facing, occlusion, size) comes from the simulation;
// when the plate is large enough the template matcher must also confirm
// the read from pixels.
func (r *Recognizer) Match(f *video.Frame, tile *vcity.Tile, cam *vcity.Camera, t float64, v *vcity.Vehicle, plate string) bool {
	obs := tile.PlateAt(cam, t, v, f.W, f.H)
	if !obs.Identifiable || v.Plate != plate {
		return false
	}
	if obs.Box.W() >= legibleWidth {
		read, score := r.ReadRegion(f, obs.Box)
		return read == plate && score >= matchThreshold
	}
	// Small-plate oracle assist (see package comment).
	return true
}
