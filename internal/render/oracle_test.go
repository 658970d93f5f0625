// The oracle: internal/render/renderer.go as it stood before the static
// layer (commit a2ebd41), which derives every pixel of every frame from
// scratch. It is kept verbatim — `git diff a2ebd41:internal/render/renderer.go
// internal/render/oracle_test.go` shows this header, the package clause,
// the dot import, Renderer → oracleRenderer, New → newOracle and the clip
// field with its one guarded `continue` in rasterizeFace — so that
// TestRenderMatchesOracle compares the renderer against what it replaced,
// not against a paraphrase. Do not tidy it.
//
// With clip unset this is the old renderer, bug included: a scanline span
// was clamped into [0, w−1] before anyone asked whether it was on screen,
// so a face wholly left or right of the image painted the edge column.
// The renderer rejects such spans; clip makes the oracle do the same, and
// TestEdgeColumnFixIsConfined shows the two oracles differ in nothing but
// the two edge columns.

package render_test

import (
	"math"
	"sort"

	"repro/internal/geom"
	. "repro/internal/render" // the glyph tables, unqualified as in the original
	"repro/internal/vcity"
	"repro/internal/video"
)

// oracleRenderer rasterizes frames of a Visual City camera. A oracleRenderer is
// bound to one city and one output resolution; it reuses internal
// buffers across frames and is not safe for concurrent use (create one
// oracleRenderer per goroutine — frames are pure functions of time, so
// renderers never contend).
type oracleRenderer struct {
	city *vcity.City
	w, h int
	rgb  []video.Color
	clip bool // test-only: reject off-image spans before clamping (the edge-column fix)
}

// New returns a renderer producing w×h frames of the given city.
func newOracle(city *vcity.City, w, h int) *oracleRenderer {
	return &oracleRenderer{city: city, w: w, h: h, rgb: make([]video.Color, w*h)}
}

// face is one rasterizable quad: four world-space corners (planar,
// wound consistently), a base color, and an optional plate texture.
type face struct {
	v     [4]geom.Vec3
	color video.Color
	depth float64 // mean camera depth for painter's sorting
	plate string  // when non-empty, texture the quad with plate glyphs
}

// Frame renders the camera's view at simulation time t into a freshly
// allocated frame.
func (r *oracleRenderer) Frame(cam *vcity.Camera, t float64) *video.Frame {
	f := video.NewFrame(r.w, r.h)
	r.FrameInto(cam, t, f)
	return f
}

// FrameInto renders the camera's view at simulation time t into dst,
// which must have the renderer's dimensions. Every sample of dst is
// overwritten, so pooled frames with stale contents are fine. This is
// the allocation-free path used by the streaming generate pipeline.
func (r *oracleRenderer) FrameInto(cam *vcity.Camera, t float64, dst *video.Frame) {
	if dst.W != r.w || dst.H != r.h {
		panic("render: FrameInto destination dimensions do not match renderer")
	}
	tile := r.city.TileOf(cam)
	weather := tile.Layout.Spec.Weather
	light := lighting(weather)

	r.drawGroundAndSky(cam, tile, t, light)
	r.drawFaces(cam, tile, t, light)
	if weather.Precip != vcity.Dry {
		r.drawRain(tile, weather, t)
	}

	r.toFrameInto(dst)
}

// lightModel captures the per-frame global illumination parameters.
type lightModel struct {
	sun        geom.Vec3 // direction toward the sun
	ambient    float64
	diffuse    float64
	warmth     float64 // sunset tinting amount [0, 1]
	skyTop     video.Color
	skyHorizon video.Color
}

func lighting(w vcity.Weather) lightModel {
	alt := geom.Deg(w.SunAltitude)
	az := geom.Deg(220)
	sun := geom.Vec3{
		X: math.Cos(alt) * math.Cos(az),
		Y: math.Cos(alt) * math.Sin(az),
		Z: math.Sin(alt),
	}
	bright := 0.45 + 0.55*math.Sin(alt)
	bright *= 1 - 0.35*w.CloudCover
	warmth := geom.Clamp(1-w.SunAltitude/20, 0, 1) * (1 - 0.6*w.CloudCover)
	m := lightModel{
		sun:     sun,
		ambient: 0.35 + 0.25*w.CloudCover,
		diffuse: bright,
		warmth:  warmth,
	}
	clear := video.Color{R: 90, G: 150, B: 230}
	overcast := video.Color{R: 150, G: 155, B: 165}
	m.skyTop = clear.Lerp(overcast, w.CloudCover)
	horizonClear := video.Color{R: 190, G: 210, B: 240}
	horizonSunset := video.Color{R: 245, G: 160, B: 90}
	m.skyHorizon = horizonClear.Lerp(horizonSunset, warmth)
	m.skyTop = m.skyTop.Scale(0.6 + 0.4*math.Sin(alt))
	return m
}

// shade applies diffuse lighting and sunset warmth to a base color given
// a surface normal.
func (m *lightModel) shade(c video.Color, normal geom.Vec3) video.Color {
	d := normal.Dot(m.sun)
	if d < 0 {
		d = 0
	}
	k := m.ambient + m.diffuse*d
	out := c.Scale(k)
	if m.warmth > 0 {
		out = out.Lerp(video.Color{R: 255, G: 170, B: 100}, 0.18*m.warmth)
	}
	return out
}

var groundColors = map[vcity.Material]video.Color{
	vcity.MatGrass:    {R: 70, G: 120, B: 60},
	vcity.MatRoad:     {R: 62, G: 62, B: 66},
	vcity.MatLaneMark: {R: 215, G: 210, B: 130},
	vcity.MatSidewalk: {R: 150, G: 148, B: 142},
	vcity.MatPlaza:    {R: 120, G: 115, B: 105},
}

// drawGroundAndSky fills every pixel by casting its view ray: rays that
// point above the horizon sample the sky (with procedural clouds); the
// rest intersect the ground plane and sample the tile's material map.
func (r *oracleRenderer) drawGroundAndSky(cam *vcity.Camera, tile *vcity.Tile, t float64, light lightModel) {
	fwd, right, up := cam.Basis()
	focal := float64(r.w) / 2 / math.Tan(geom.Deg(cam.FOVDeg)/2)
	groundNormal := geom.Vec3{Z: 1}
	for py := 0; py < r.h; py++ {
		for px := 0; px < r.w; px++ {
			// View ray through pixel center.
			dx := (float64(px) + 0.5 - float64(r.w)/2) / focal
			dy := (float64(r.h)/2 - float64(py) - 0.5) / focal
			dir := fwd.Add(right.Scale(dx)).Add(up.Scale(dy))
			var c video.Color
			if dir.Z >= -1e-6 {
				c = r.sky(dir, tile, t, light)
			} else {
				// Intersect z=0 plane.
				s := -cam.Pos.Z / dir.Z
				gx := cam.Pos.X + dir.X*s
				gy := cam.Pos.Y + dir.Y*s
				mat := tile.Layout.MaterialAt(gx, gy)
				c = light.shade(groundColors[mat], groundNormal)
				// Distance haze toward the horizon color.
				dist := math.Hypot(gx-cam.Pos.X, gy-cam.Pos.Y)
				haze := geom.Clamp(dist/1200, 0, 0.7)
				c = c.Lerp(light.skyHorizon, haze)
			}
			r.rgb[py*r.w+px] = c
		}
	}
}

// sky returns the sky color along direction dir, with value-noise clouds
// drifting over time.
func (r *oracleRenderer) sky(dir geom.Vec3, tile *vcity.Tile, t float64, light lightModel) video.Color {
	d := dir.Norm()
	elev := geom.Clamp(d.Z, 0, 1)
	c := light.skyHorizon.Lerp(light.skyTop, math.Sqrt(elev))
	cover := tile.Layout.Spec.Weather.CloudCover
	if cover > 0.02 && d.Z > 0.02 {
		// Project the direction onto a cloud layer plane and sample noise.
		scale := 400.0
		cx := d.X/d.Z*scale + t*6 // clouds drift east
		cy := d.Y / d.Z * scale
		n := cloudNoise(cx*0.01, cy*0.01, uint64(tile.Index))
		thresh := 1 - cover
		if n > thresh {
			density := geom.Clamp((n-thresh)/(1.02-thresh), 0, 1)
			cloud := video.Color{R: 235, G: 235, B: 238}.Scale(0.55 + 0.45*light.diffuse)
			c = c.Lerp(cloud, density)
		}
	}
	return c
}

// cloudNoise is two octaves of 2D value noise in [0, 1].
func cloudNoise(x, y float64, seed uint64) float64 {
	return 0.65*valueNoise(x, y, seed) + 0.35*valueNoise(x*2.7, y*2.7, seed^0xabcdef)
}

func valueNoise(x, y float64, seed uint64) float64 {
	xi, yi := math.Floor(x), math.Floor(y)
	fx, fy := x-xi, y-yi
	// Smoothstep interpolation weights.
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	v00 := latticeHash(int64(xi), int64(yi), seed)
	v10 := latticeHash(int64(xi)+1, int64(yi), seed)
	v01 := latticeHash(int64(xi), int64(yi)+1, seed)
	v11 := latticeHash(int64(xi)+1, int64(yi)+1, seed)
	top := v00 + (v10-v00)*sx
	bot := v01 + (v11-v01)*sx
	return top + (bot-top)*sy
}

func latticeHash(x, y int64, seed uint64) float64 {
	h := uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xbf58476d1ce4e5b9 ^ seed
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return float64(h>>11) / (1 << 53)
}

// drawFaces collects, sorts, and rasterizes all box faces: buildings
// first in the collection, then dynamic objects, all depth-sorted
// together (painter's algorithm, far to near).
func (r *oracleRenderer) drawFaces(cam *vcity.Camera, tile *vcity.Tile, t float64, light lightModel) {
	var faces []face
	for i := range tile.Layout.Buildings {
		b := &tile.Layout.Buildings[i]
		faces = appendBoxFaces(faces, cam,
			geom.Vec3{X: b.Min.X, Y: b.Min.Y, Z: 0},
			geom.Vec3{X: b.Max.X, Y: b.Max.Y, Z: b.Height},
			0, b.Facade, light, "")
	}
	for _, o := range tile.ObjectsAt(t) {
		faces = appendObjectFaces(faces, cam, &o, light)
	}
	sort.Slice(faces, func(i, j int) bool { return faces[i].depth > faces[j].depth })
	for i := range faces {
		r.rasterizeFace(cam, &faces[i])
	}
}

// appendBoxFaces adds the five visible faces (4 walls + roof) of an
// axis-aligned box, optionally rotated by yaw about its center.
func appendBoxFaces(faces []face, cam *vcity.Camera, lo, hi geom.Vec3, yaw float64, c video.Color, light lightModel, plate string) []face {
	cx, cy := (lo.X+hi.X)/2, (lo.Y+hi.Y)/2
	rot := func(x, y float64) (float64, float64) {
		if yaw == 0 {
			return x, y
		}
		dx, dy := x-cx, y-cy
		s, co := math.Sincos(yaw)
		return cx + dx*co - dy*s, cy + dx*s + dy*co
	}
	p := func(x, y, z float64) geom.Vec3 {
		rx, ry := rot(x, y)
		return geom.Vec3{X: rx, Y: ry, Z: z}
	}
	quads := []struct {
		v      [4]geom.Vec3
		normal geom.Vec3
		plate  bool
	}{
		// +X face (front when yaw=0) — carries the license plate.
		{[4]geom.Vec3{p(hi.X, lo.Y, lo.Z), p(hi.X, hi.Y, lo.Z), p(hi.X, hi.Y, hi.Z), p(hi.X, lo.Y, hi.Z)}, rotN(1, 0, yaw), true},
		{[4]geom.Vec3{p(lo.X, hi.Y, lo.Z), p(lo.X, lo.Y, lo.Z), p(lo.X, lo.Y, hi.Z), p(lo.X, hi.Y, hi.Z)}, rotN(-1, 0, yaw), false},
		{[4]geom.Vec3{p(lo.X, lo.Y, lo.Z), p(hi.X, lo.Y, lo.Z), p(hi.X, lo.Y, hi.Z), p(lo.X, lo.Y, hi.Z)}, rotN(0, -1, yaw), false},
		{[4]geom.Vec3{p(hi.X, hi.Y, lo.Z), p(lo.X, hi.Y, lo.Z), p(lo.X, hi.Y, hi.Z), p(hi.X, hi.Y, hi.Z)}, rotN(0, 1, yaw), false},
		// Roof.
		{[4]geom.Vec3{p(lo.X, lo.Y, hi.Z), p(hi.X, lo.Y, hi.Z), p(hi.X, hi.Y, hi.Z), p(lo.X, hi.Y, hi.Z)}, geom.Vec3{Z: 1}, false},
	}
	for _, q := range quads {
		// Back-face culling: skip faces pointing away from the camera.
		center := q.v[0].Add(q.v[2]).Scale(0.5)
		if q.normal.Dot(cam.Pos.Sub(center)) <= 0 {
			continue
		}
		f := face{v: q.v, color: light.shade(c, q.normal), depth: meanDepth(cam, q.v)}
		if f.depth <= 0 {
			continue
		}
		if q.plate && plate != "" {
			f.plate = plate
		}
		faces = append(faces, f)
	}
	return faces
}

func rotN(nx, ny float64, yaw float64) geom.Vec3 {
	if yaw == 0 {
		return geom.Vec3{X: nx, Y: ny}
	}
	s, c := math.Sincos(yaw)
	return geom.Vec3{X: nx*c - ny*s, Y: nx*s + ny*c}
}

func meanDepth(cam *vcity.Camera, v [4]geom.Vec3) float64 {
	fwd, _, _ := cam.Basis()
	d := 0.0
	for _, p := range v {
		d += p.Sub(cam.Pos).Dot(fwd)
	}
	return d / 4
}

// appendObjectFaces adds a dynamic object's box faces, plus a license
// plate quad for vehicles.
func appendObjectFaces(faces []face, cam *vcity.Camera, o *vcity.SceneObject, light lightModel) []face {
	lo := geom.Vec3{X: o.Center.X - o.HalfL, Y: o.Center.Y - o.HalfW, Z: o.Center.Z - o.HalfH}
	hi := geom.Vec3{X: o.Center.X + o.HalfL, Y: o.Center.Y + o.HalfW, Z: o.Center.Z + o.HalfH}
	faces = appendBoxFaces(faces, cam, lo, hi, o.Heading, o.Color, light, "")
	if o.Class == vcity.ClassVehicle && o.Plate != "" {
		faces = appendPlateFace(faces, cam, o)
	}
	return faces
}

// appendPlateFace adds the front license plate: a 0.52×0.11 m quad just
// ahead of the vehicle's +heading face, 0.5 m above ground.
func appendPlateFace(faces []face, cam *vcity.Camera, o *vcity.SceneObject) []face {
	s, c := math.Sincos(o.Heading)
	fwd2 := geom.Vec2{X: c, Y: s}
	side := geom.Vec2{X: -s, Y: c}
	center := geom.Vec2{X: o.Center.X, Y: o.Center.Y}.Add(fwd2.Scale(o.HalfL + 0.02))
	halfW, halfH := 0.26, 0.055
	z := 0.5
	mk := func(sgnSide, sgnZ float64) geom.Vec3 {
		p := center.Add(side.Scale(sgnSide * halfW))
		return geom.Vec3{X: p.X, Y: p.Y, Z: z + sgnZ*halfH}
	}
	// Wound so that (v1-v0) is the plate's left-to-right (text) axis as
	// seen from the front, and (v3-v0) its top-to-bottom axis. Viewed
	// head-on, text runs left to right: from the camera's perspective
	// the vehicle's right side (-side) is on the left.
	v := [4]geom.Vec3{mk(-1, 1), mk(1, 1), mk(1, -1), mk(-1, -1)}
	normal := geom.Vec3{X: c, Y: s}
	centerV := v[0].Add(v[2]).Scale(0.5)
	if normal.Dot(cam.Pos.Sub(centerV)) <= 0 {
		return faces
	}
	d := meanDepth(cam, v)
	if d <= 0 {
		return faces
	}
	faces = append(faces, face{v: v, color: video.Color{R: 240, G: 240, B: 240}, depth: d - 0.05, plate: o.Plate})
	return faces
}

// rasterizeFace projects and scanline-fills one quad. Faces with any
// vertex behind the near plane are skipped (acceptable for elevated
// benchmark cameras). Plate faces are textured with glyphs via inverse
// bilinear UV estimation.
func (r *oracleRenderer) rasterizeFace(cam *vcity.Camera, f *face) {
	var sx, sy [4]float64
	for i, p := range f.v {
		x, y, _, ok := cam.Project(p, r.w, r.h)
		if !ok {
			return
		}
		sx[i], sy[i] = x, y
	}
	minY := int(math.Floor(math.Min(math.Min(sy[0], sy[1]), math.Min(sy[2], sy[3]))))
	maxY := int(math.Ceil(math.Max(math.Max(sy[0], sy[1]), math.Max(sy[2], sy[3]))))
	minY = geom.ClampInt(minY, 0, r.h-1)
	maxY = geom.ClampInt(maxY, 0, r.h-1)
	for py := minY; py <= maxY; py++ {
		yc := float64(py) + 0.5
		// Collect intersections of the scanline with the quad edges.
		var xs []float64
		for i := 0; i < 4; i++ {
			j := (i + 1) % 4
			y0, y1 := sy[i], sy[j]
			if (y0 <= yc) == (y1 <= yc) {
				continue
			}
			tEdge := (yc - y0) / (y1 - y0)
			xs = append(xs, sx[i]+(sx[j]-sx[i])*tEdge)
		}
		if len(xs) < 2 {
			continue
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs[1:] {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if r.clip && (int(math.Ceil(hi-0.5)) < 0 || int(math.Floor(lo+0.5)) > r.w-1) {
			continue
		}
		x0 := geom.ClampInt(int(math.Floor(lo+0.5)), 0, r.w-1)
		x1 := geom.ClampInt(int(math.Ceil(hi-0.5)), 0, r.w-1)
		for px := x0; px <= x1; px++ {
			c := f.color
			if f.plate != "" {
				c = r.plateTexel(f, sx, sy, float64(px)+0.5, yc)
			}
			r.rgb[py*r.w+px] = c
		}
	}
}

// plateTexel samples the plate texture at screen point (x, y) using an
// affine approximation of the quad's UV mapping (adequate for the small
// screen footprint of plates).
func (r *oracleRenderer) plateTexel(f *face, sx, sy [4]float64, x, y float64) video.Color {
	// Basis: v0→v1 is u (text direction), v0→v3 is v (downward).
	ux, uy := sx[1]-sx[0], sy[1]-sy[0]
	vx, vy := sx[3]-sx[0], sy[3]-sy[0]
	det := ux*vy - uy*vx
	if math.Abs(det) < 1e-9 {
		return f.color
	}
	dx, dy := x-sx[0], y-sy[0]
	u := (dx*vy - dy*vx) / det
	v := (ux*dy - uy*dx) / det
	if u < 0 || u >= 1 || v < 0 || v >= 1 {
		return f.color
	}
	// Plate layout: 6 glyph cells with margins.
	const chars = 6
	marginU, marginV := 0.04, 0.12
	if u < marginU || u > 1-marginU || v < marginV || v > 1-marginV {
		return f.color // white border
	}
	uu := (u - marginU) / (1 - 2*marginU)
	vv := (v - marginV) / (1 - 2*marginV)
	ci := int(uu * chars)
	if ci >= len(f.plate) {
		return f.color
	}
	cu := uu*chars - float64(ci) // [0,1) within the cell
	cx := int(cu * (GlyphW + 1)) // +1 for inter-glyph spacing
	cy := int(vv * GlyphH)
	if cx < GlyphW && GlyphBit(rune(f.plate[ci]), cx, cy) {
		return video.Color{R: 20, G: 20, B: 30}
	}
	return f.color
}

// drawRain overlays deterministic rain streaks: short bright vertical
// strokes whose count scales with precipitation level.
func (r *oracleRenderer) drawRain(tile *vcity.Tile, w vcity.Weather, t float64) {
	density := 0.0005
	if w.Precip == vcity.Rain {
		density = 0.002
	}
	n := int(float64(r.w*r.h) * density)
	frame := int64(t * 1000)
	rng := vcity.NewRNG(uint64(frame)*0x9e3779b97f4a7c15 + uint64(tile.Index))
	for i := 0; i < n; i++ {
		x := rng.Intn(r.w)
		y := rng.Intn(r.h)
		length := 3 + rng.Intn(6)
		for dy := 0; dy < length && y+dy < r.h; dy++ {
			idx := (y+dy)*r.w + x
			r.rgb[idx] = r.rgb[idx].Lerp(video.Color{R: 200, G: 205, B: 215}, 0.45)
		}
	}
}

// toFrameInto converts the RGB buffer to YUV 4:2:0 in place in f,
// overwriting every luma and chroma sample.
func (r *oracleRenderer) toFrameInto(f *video.Frame) {
	cw := f.ChromaW()
	// Luma per pixel; chroma averaged over each 2×2 block.
	for y := 0; y < r.h; y++ {
		for x := 0; x < r.w; x++ {
			Y, _, _ := r.rgb[y*r.w+x].YUV()
			f.Y[y*r.w+x] = Y
		}
	}
	for cy := 0; cy < f.ChromaH(); cy++ {
		for cx := 0; cx < cw; cx++ {
			var su, sv, n int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					x, y := cx*2+dx, cy*2+dy
					if x >= r.w || y >= r.h {
						continue
					}
					_, u, v := r.rgb[y*r.w+x].YUV()
					su += int(u)
					sv += int(v)
					n++
				}
			}
			f.U[cy*cw+cx] = byte(su / n)
			f.V[cy*cw+cx] = byte(sv / n)
		}
	}
}
