package lightdblike

import (
	"math"

	"repro/internal/geom"
	"repro/internal/vcity"
)

// The angle model: LightDB addresses visual data by spherical
// coordinates (θ horizontal, φ vertical) rather than pixel offsets.
// Benchmark queries arrive in pixels, so adapters convert a pixel
// rectangle into the angular interval it subtends in the camera's field
// of view, and convert back before sampling. The round trip is exact up
// to the pinhole model, so fidelity is unaffected; it reproduces the
// manual coordinate mapping the paper describes.

// angularRect is a field-of-view interval.
type angularRect struct {
	Theta1, Theta2 float64 // horizontal angles (radians)
	Phi1, Phi2     float64 // vertical angles (radians)
}

// pixelRectToAngles converts a pixel rectangle to the angular interval
// it subtends for the given camera.
func pixelRectToAngles(cam *vcity.Camera, x1, y1, x2, y2, w, h int) angularRect {
	focal := float64(w) / 2 / math.Tan(geom.Deg(cam.FOVDeg)/2)
	toTheta := func(x int) float64 { return math.Atan((float64(x) - float64(w)/2) / focal) }
	toPhi := func(y int) float64 { return math.Atan((float64(h)/2 - float64(y)) / focal) }
	return angularRect{
		Theta1: toTheta(x1), Theta2: toTheta(x2),
		Phi1: toPhi(y1), Phi2: toPhi(y2),
	}
}

// anglesToPixelRect converts an angular interval back to pixels,
// rounding outward so the round trip never loses requested pixels.
func anglesToPixelRect(cam *vcity.Camera, a angularRect, w, h int) (x1, y1, x2, y2 int) {
	focal := float64(w) / 2 / math.Tan(geom.Deg(cam.FOVDeg)/2)
	toX := func(theta float64) float64 { return float64(w)/2 + focal*math.Tan(theta) }
	toY := func(phi float64) float64 { return float64(h)/2 - focal*math.Tan(phi) }
	x1 = int(math.Round(toX(a.Theta1)))
	x2 = int(math.Round(toX(a.Theta2)))
	y1 = int(math.Round(toY(a.Phi1)))
	y2 = int(math.Round(toY(a.Phi2)))
	return x1, y1, x2, y2
}
