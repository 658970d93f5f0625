// Package geom provides the small geometric vocabulary shared by the
// Visual Road simulator, renderer, and validators: 2D/3D vectors,
// axis-aligned rectangles, and the box-overlap metric (IoU; the Jaccard
// distance is 1 − IoU) used for semantic validation of detection queries.
package geom

import "math"

// Vec2 is a point or direction in the city's ground plane (meters).
type Vec2 struct {
	X, Y float64
}

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product of v and o.
func (v Vec2) Dot(o Vec2) float64 { return v.X*o.X + v.Y*o.Y }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Norm returns v scaled to unit length; the zero vector is returned as-is.
func (v Vec2) Norm() Vec2 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Vec3 is a point or direction in city space: X east, Y north, Z up (meters).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Cross returns the cross product v × o.
func (v Vec3) Cross(o Vec3) Vec3 {
	return Vec3{
		v.Y*o.Z - v.Z*o.Y,
		v.Z*o.X - v.X*o.Z,
		v.X*o.Y - v.Y*o.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Norm returns v scaled to unit length; the zero vector is returned as-is.
func (v Vec3) Norm() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Rect is an axis-aligned rectangle in pixel coordinates. Min is the
// upper-left corner and Max the lower-right; a Rect is well formed when
// Min.X <= Max.X and Min.Y <= Max.Y. Coordinates are continuous: the
// rectangle covers [Min.X, Max.X) × [Min.Y, Max.Y).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// W returns the rectangle's width.
func (r Rect) W() float64 { return r.MaxX - r.MinX }

// H returns the rectangle's height.
func (r Rect) H() float64 { return r.MaxY - r.MinY }

// Area returns the rectangle's area; degenerate rectangles have area 0.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// Empty reports whether the rectangle covers no area.
func (r Rect) Empty() bool { return r.MaxX <= r.MinX || r.MaxY <= r.MinY }

// Intersect returns the overlapping region of r and o, which may be empty.
func (r Rect) Intersect(o Rect) Rect {
	i := Rect{
		math.Max(r.MinX, o.MinX),
		math.Max(r.MinY, o.MinY),
		math.Min(r.MaxX, o.MaxX),
		math.Min(r.MaxY, o.MaxY),
	}
	if i.Empty() {
		return Rect{}
	}
	return i
}

// Clip constrains r to the bounds rectangle.
func (r Rect) Clip(bounds Rect) Rect { return r.Intersect(bounds) }

// IoU returns the intersection-over-union of two rectangles in [0, 1].
// Two empty rectangles have IoU 0.
func IoU(a, b Rect) float64 {
	inter := a.Intersect(b).Area()
	if inter == 0 {
		return 0
	}
	union := a.Area() + b.Area() - inter
	return inter / union
}

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }

// WrapAngle normalizes an angle to (-π, π].
func WrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt bounds v to [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
