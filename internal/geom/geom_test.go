package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVec2Basics(t *testing.T) {
	a := Vec2{3, 4}
	if got := a.Len(); !almostEq(got, 5) {
		t.Errorf("Len() = %v, want 5", got)
	}
	if got := a.Norm().Len(); !almostEq(got, 1) {
		t.Errorf("Norm().Len() = %v, want 1", got)
	}
	if got := (Vec2{}).Norm(); got != (Vec2{}) {
		t.Errorf("zero vector Norm() = %v, want zero", got)
	}
	if got := a.Add(Vec2{1, 2}); got != (Vec2{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(Vec2{1, 2}); got != (Vec2{2, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(Vec2{2, -1}); !almostEq(got, 2) {
		t.Errorf("Dot = %v, want 2", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-2, 1, 0.5}
	c := a.Cross(b)
	if !almostEq(c.Dot(a), 0) || !almostEq(c.Dot(b), 0) {
		t.Errorf("cross product not orthogonal: %v", c)
	}
}

func TestVec3NormZero(t *testing.T) {
	if got := (Vec3{}).Norm(); got != (Vec3{}) {
		t.Errorf("zero Norm() = %v", got)
	}
}

func TestRectAreaAndEmpty(t *testing.T) {
	if a := (Rect{0, 0, 4, 5}).Area(); !almostEq(a, 20) {
		t.Errorf("Area = %v, want 20", a)
	}
	if !(Rect{5, 5, 5, 9}).Empty() {
		t.Error("zero-width rect should be empty")
	}
	if a := (Rect{5, 5, 4, 9}).Area(); a != 0 {
		t.Errorf("inverted rect Area = %v, want 0", a)
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got := a.Intersect(b)
	want := Rect{5, 5, 10, 10}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersect(Rect{20, 20, 30, 30}).Empty() {
		t.Error("disjoint rects should intersect to empty")
	}
}

func TestIoUIdentical(t *testing.T) {
	r := Rect{1, 2, 5, 9}
	if got := IoU(r, r); !almostEq(got, 1) {
		t.Errorf("IoU(r, r) = %v, want 1", got)
	}
}

func TestIoUDisjoint(t *testing.T) {
	if got := IoU(Rect{0, 0, 1, 1}, Rect{2, 2, 3, 3}); got != 0 {
		t.Errorf("IoU disjoint = %v, want 0", got)
	}
}

func TestIoUHalfOverlap(t *testing.T) {
	a := Rect{0, 0, 2, 1}
	b := Rect{1, 0, 3, 1}
	// Intersection 1, union 3.
	if got := IoU(a, b); !almostEq(got, 1.0/3) {
		t.Errorf("IoU = %v, want 1/3", got)
	}
}

func TestIoUProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 100) }
		a := Rect{norm(ax), norm(ay), norm(ax) + norm(aw) + 0.1, norm(ay) + norm(ah) + 0.1}
		b := Rect{norm(bx), norm(by), norm(bx) + norm(bw) + 0.1, norm(by) + norm(bh) + 0.1}
		iou := IoU(a, b)
		// Symmetric and bounded.
		return iou >= 0 && iou <= 1 && almostEq(iou, IoU(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); !almostEq(got, c.want) {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp(5,0,3) = %v", got)
	}
	if got := Clamp(-1, 0, 3); got != 0 {
		t.Errorf("Clamp(-1,0,3) = %v", got)
	}
	if got := ClampInt(7, 2, 4); got != 4 {
		t.Errorf("ClampInt = %v", got)
	}
	if got := ClampInt(1, 2, 4); got != 2 {
		t.Errorf("ClampInt = %v", got)
	}
}

func TestDeg(t *testing.T) {
	if got := Deg(180); !almostEq(got, math.Pi) {
		t.Errorf("Deg(180) = %v", got)
	}
}
