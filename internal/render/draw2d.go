package render

import (
	"repro/internal/geom"
	"repro/internal/video"
)

// The 2D helpers draw directly into YUV frames. They are used by the
// reference implementations of the box-overlay (Q2(c), Q6(a)) and
// captioning (Q6(b)) queries.

// PixelRect is the pixels [x0, x1) × [y0, y1) a rectangle covers in a
// w×h frame: its corners truncated to integers and clamped to the frame.
func PixelRect(r geom.Rect, w, h int) (x0, y0, x1, y1 int) {
	return geom.ClampInt(int(r.MinX), 0, w), geom.ClampInt(int(r.MinY), 0, h),
		geom.ClampInt(int(r.MaxX), 0, w), geom.ClampInt(int(r.MaxY), 0, h)
}

// FillRect fills the pixel rectangle with a solid YUV color.
func FillRect(f *video.Frame, r geom.Rect, c video.Color) {
	y8, u8, v8 := c.YUV()
	x0, y0, x1, y1 := PixelRect(r, f.W, f.H)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			f.Set(x, y, y8, u8, v8)
		}
	}
}

// DrawRect strokes the rectangle outline with the given thickness.
func DrawRect(f *video.Frame, r geom.Rect, thickness int, c video.Color) {
	if thickness < 1 {
		thickness = 1
	}
	t := float64(thickness)
	FillRect(f, geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MinY + t}, c)
	FillRect(f, geom.Rect{MinX: r.MinX, MinY: r.MaxY - t, MaxX: r.MaxX, MaxY: r.MaxY}, c)
	FillRect(f, geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MinX + t, MaxY: r.MaxY}, c)
	FillRect(f, geom.Rect{MinX: r.MaxX - t, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}, c)
}

// TextWidth returns the pixel width of s drawn at the given scale.
func TextWidth(s string, scale int) int {
	return len(s) * (GlyphW + 1) * scale
}

// TextHeight returns the pixel height of one text line at the scale.
func TextHeight(scale int) int { return GlyphH * scale }

// DrawText renders s at pixel position (x, y) (top-left corner) with an
// integer scale factor. Pixels outside the frame are clipped.
func DrawText(f *video.Frame, x, y, scale int, s string, c video.Color) {
	if scale < 1 {
		scale = 1
	}
	y8, u8, v8 := c.YUV()
	cx := x
	for _, ch := range s {
		for gy := 0; gy < GlyphH; gy++ {
			for gx := 0; gx < GlyphW; gx++ {
				if !GlyphBit(ch, gx, gy) {
					continue
				}
				for sy := 0; sy < scale; sy++ {
					for sx := 0; sx < scale; sx++ {
						px := cx + gx*scale + sx
						py := y + gy*scale + sy
						if px < 0 || px >= f.W || py < 0 || py >= f.H {
							continue
						}
						f.Set(px, py, y8, u8, v8)
					}
				}
			}
		}
		cx += (GlyphW + 1) * scale
	}
}
