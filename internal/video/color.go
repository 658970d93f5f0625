package video

// Color is an RGB triple used by the renderer and converted to YUV at
// rasterization time. Components are in [0, 255].
type Color struct {
	R, G, B uint8
}

// YUV converts c to studio-range BT.601 YUV, the color space the codec
// and validation metrics operate in.
func (c Color) YUV() (y, u, v byte) {
	r, g, b := float64(c.R), float64(c.G), float64(c.B)
	yf := 16 + 0.257*r + 0.504*g + 0.098*b
	uf := 128 - 0.148*r - 0.291*g + 0.439*b
	vf := 128 + 0.439*r - 0.368*g - 0.071*b
	return clampByte(yf), clampByte(uf), clampByte(vf)
}

// Scale returns c with each channel multiplied by k (clamped).
func (c Color) Scale(k float64) Color {
	return Color{
		uint8(clampByte(float64(c.R) * k)),
		uint8(clampByte(float64(c.G) * k)),
		uint8(clampByte(float64(c.B) * k)),
	}
}

// Lerp linearly interpolates between c and o by t in [0, 1].
func (c Color) Lerp(o Color, t float64) Color {
	return Color{
		uint8(clampByte(float64(c.R) + (float64(o.R)-float64(c.R))*t)),
		uint8(clampByte(float64(c.G) + (float64(o.G)-float64(c.G))*t)),
		uint8(clampByte(float64(c.B) + (float64(o.B)-float64(c.B))*t)),
	}
}

func clampByte(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v + 0.5)
}
