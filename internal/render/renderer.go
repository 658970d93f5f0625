package render

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/stablehash"
	"repro/internal/vcity"
	"repro/internal/video"
)

// Renderer rasterizes frames of Visual City cameras at one output
// resolution. Cameras never move and neither do buildings, so a
// Renderer keeps a static layer for the camera it rendered last —
// ground, cloudless sky and buildings composited once (DESIGN.md
// §5.15) — and a frame costs only what depends on time: drifting
// clouds, moving objects and rain. Frames remain pure functions of
// (camera, t): any time, in any order, on any Renderer. Rendering
// another camera rebuilds the layer, so render a camera's frames
// together. A Renderer is not safe for concurrent use (create one per
// goroutine; renderers never contend).
type Renderer struct {
	city *vcity.City
	w, h int
	rgb  []video.Color // the frame being composed; equals static between frames

	// The static layer and the inputs it was built from.
	tile   *vcity.Tile
	cam    vcity.Camera
	view   view
	light  lightModel
	static []video.Color // ground, cloudless sky and buildings, composited far to near
	base   *video.Frame  // static converted to YUV 4:2:0
	owner  []uint16      // per pixel: ownerGround, ownerCloud, or ownerFace+rank
	depths []float64     // by rank: mean depth of each static face, far to near
	rays   []geom.Vec3   // per column: forward + right·dx, the row-independent part of a view ray
	clouds []span        // per row: the columns that enclose its ownerCloud pixels
	noise  [2]noiseCell  // the two octaves of the tile's cloud noise

	// Per-frame scratch, kept so a steady-state frame allocates nothing.
	objs     []vcity.SceneObject
	faces    []face
	order    []faceKey
	dirty    []uint64    // one bit per 2×2 pixel block changed this frame
	rowWords int         // words of dirty per block row
	cloudXY  []geom.Vec2 // per column: a cloud row's cloud-plane coordinates
}

// Owner values: what the static layer shows at a pixel, so that a
// moving face can tell whether it is in front of it.
const (
	ownerGround uint16 = iota // ground, or sky too low for clouds: everything is in front of it
	ownerCloud                // sky that clouds drift across: re-evaluated every frame
	ownerFace                 // ownerFace+k: the static face of rank k, far to near
)

// span is a half-open range of columns.
type span struct{ lo, hi int32 }

// New returns a renderer producing w×h frames of the given city.
func New(city *vcity.City, w, h int) *Renderer {
	cw, ch := (w+1)/2, (h+1)/2
	rowWords := (cw + 63) / 64
	return &Renderer{
		city: city, w: w, h: h,
		rgb:      make([]video.Color, w*h),
		static:   make([]video.Color, w*h),
		base:     video.NewFrame(w, h),
		owner:    make([]uint16, w*h),
		rays:     make([]geom.Vec3, w),
		clouds:   make([]span, h),
		cloudXY:  make([]geom.Vec2, w),
		dirty:    make([]uint64, ch*rowWords),
		rowWords: rowWords,
	}
}

// Frame renders the camera's view at simulation time t into a freshly
// allocated frame.
func (r *Renderer) Frame(cam *vcity.Camera, t float64) *video.Frame {
	f := video.NewFrame(r.w, r.h)
	r.FrameInto(cam, t, f)
	return f
}

// FrameInto renders the camera's view at simulation time t into dst,
// which must have the renderer's dimensions. Every sample of dst is
// overwritten, so pooled frames with stale contents are fine. After a
// camera's first frame this path allocates nothing.
func (r *Renderer) FrameInto(cam *vcity.Camera, t float64, dst *video.Frame) {
	if dst.W != r.w || dst.H != r.h {
		panic("render: FrameInto destination dimensions do not match renderer")
	}
	tile := r.city.TileOf(cam)
	if tile != r.tile || *cam != r.cam {
		r.buildLayer(cam, tile)
	}
	copy(dst.Y, r.base.Y)
	copy(dst.U, r.base.U)
	copy(dst.V, r.base.V)

	r.drawClouds(t)
	r.drawObjects(t)
	r.drawRain(t)
	r.convertDirty(dst)
}

// buildLayer composites everything in the camera's view that does not
// depend on time, records which static thing owns each pixel, and
// converts the result to YUV once.
func (r *Renderer) buildLayer(cam *vcity.Camera, tile *vcity.Tile) {
	r.tile, r.cam = tile, *cam
	r.view = newView(cam, r.w, r.h)
	r.light = lighting(tile.Layout.Spec.Weather)
	r.noise = [2]noiseCell{newNoiseCell(uint64(tile.Index)), newNoiseCell(uint64(tile.Index) ^ 0xabcdef)}

	r.drawGroundAndSky()

	r.faces, r.order = r.faces[:0], r.order[:0]
	for i := range tile.Layout.Buildings {
		b := &tile.Layout.Buildings[i]
		r.appendBoxFaces(
			geom.Vec3{X: b.Min.X, Y: b.Min.Y, Z: 0},
			geom.Vec3{X: b.Max.X, Y: b.Max.Y, Z: b.Height},
			0, b.Facade)
	}
	if len(r.faces) > math.MaxUint16-int(ownerFace) {
		panic("render: more static faces in view than the owner plane can name")
	}
	sortFaces(r.order)
	r.depths = r.depths[:0]
	for rank, k := range r.order {
		r.depths = append(r.depths, k.depth)
		r.fill(&r.faces[k.idx], 0, ownerFace+uint16(rank))
	}

	copy(r.rgb, r.static)
	for cy := 0; cy < r.base.ChromaH(); cy++ {
		for cx := 0; cx < r.base.ChromaW(); cx++ {
			r.convertBlock(r.base, cx, cy)
		}
	}
	clear(r.dirty)
}

// view is a camera's projection with everything that depends only on
// the camera computed once: Camera.Basis costs four trigonometric calls
// and the focal length a tangent, and the per-vertex paths used to pay
// both for every projected point.
type view struct {
	pos            geom.Vec3
	fwd, right, up geom.Vec3
	focal          float64
	halfW, halfH   float64
	planes         [5]plane // near, left, right, top, bottom; see outside
}

// plane is a unit inward normal and its offset from the camera: a point
// p is in front of it when n·(p−pos) ≥ off.
type plane struct {
	n   geom.Vec3
	off float64
}

// cullMargin is how many pixels the side planes of the cull stand
// outside appendFace's rejection lines: far more than the rounding of
// a projection, so the cull never drops what appendFace would keep.
const cullMargin = 4

func newView(cam *vcity.Camera, w, h int) view {
	v := view{pos: cam.Pos, halfW: float64(w) / 2, halfH: float64(h) / 2}
	v.fwd, v.right, v.up = cam.Basis()
	v.focal = float64(w) / 2 / math.Tan(geom.Deg(cam.FOVDeg)/2)
	// A point at depth z > 0 projects to sx = halfW + focal·x/z, so
	// sx ≤ L is focal·x − (L−halfW)·z ≤ 0, a plane through the camera;
	// likewise for the other three lines.
	left := -1.5 - cullMargin
	right := float64(w) + 0.5 + cullMargin
	top := 0.5 - cullMargin
	bottom := float64(h) - 0.5 + cullMargin
	v.planes = [5]plane{
		{n: v.fwd, off: 0.1},
		{n: v.right.Scale(v.focal).Sub(v.fwd.Scale(left - v.halfW))},
		{n: v.fwd.Scale(right - v.halfW).Sub(v.right.Scale(v.focal))},
		{n: v.fwd.Scale(v.halfH - top).Sub(v.up.Scale(v.focal))},
		{n: v.up.Scale(v.focal).Add(v.fwd.Scale(bottom - v.halfH))},
	}
	for i := 1; i < len(v.planes); i++ {
		v.planes[i].n = v.planes[i].n.Norm()
	}
	return v
}

// depth is p's distance along the camera's forward axis.
func (v *view) depth(p geom.Vec3) float64 { return p.Sub(v.pos).Dot(v.fwd) }

// project is Camera.Project on the cached basis.
func (v *view) project(p geom.Vec3) (sx, sy float64, ok bool) {
	d := p.Sub(v.pos)
	z := d.Dot(v.fwd)
	if z < 0.1 {
		return 0, 0, false
	}
	sx = v.halfW + v.focal*d.Dot(v.right)/z
	sy = v.halfH - v.focal*d.Dot(v.up)/z
	return sx, sy, true
}

// outside reports whether the sphere of radius rad about c lies wholly
// behind the near plane or wholly beyond one side of the image. Then
// every quad with its corners in the sphere has a corner that project
// refuses, or projects wholly past one of appendFace's rejection lines
// with cullMargin pixels to spare, so appendFace drops it.
func (v *view) outside(c geom.Vec3, rad float64) bool {
	d := c.Sub(v.pos)
	for i := range v.planes {
		if p := &v.planes[i]; d.Dot(p.n)-p.off < -rad {
			return true
		}
	}
	return false
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

// groundColors is indexed by vcity.Material.
var groundColors = [...]video.Color{
	vcity.MatGrass:    {R: 70, G: 120, B: 60},
	vcity.MatRoad:     {R: 62, G: 62, B: 66},
	vcity.MatLaneMark: {R: 215, G: 210, B: 130},
	vcity.MatSidewalk: {R: 150, G: 148, B: 142},
	vcity.MatPlaza:    {R: 120, G: 115, B: 105},
}

// drawGroundAndSky fills every pixel of the static layer by casting its
// view ray: rays that point above the horizon sample the cloudless sky,
// and are marked ownerCloud where clouds can cover them; the rest
// intersect the ground plane and sample the tile's material map.
func (r *Renderer) drawGroundAndSky() {
	v, light, layout := &r.view, &r.light, r.tile.Layout
	var shaded [len(groundColors)]video.Color
	for m, c := range groundColors {
		shaded[m] = light.shade(c, geom.Vec3{Z: 1})
	}
	for px := range r.rays {
		dx := (float64(px) + 0.5 - v.halfW) / v.focal
		r.rays[px] = v.fwd.Add(v.right.Scale(dx))
	}
	cloudy := layout.Spec.Weather.CloudCover > 0.02
	for py := 0; py < r.h; py++ {
		// View ray through pixel center.
		dy := (v.halfH - float64(py) - 0.5) / v.focal
		rise := v.up.Scale(dy)
		clouds := span{}
		for px := 0; px < r.w; px++ {
			dir := r.rays[px].Add(rise)
			var c video.Color
			own := ownerGround
			if dir.Z >= -1e-6 {
				d := dir.Norm()
				elev := geom.Clamp(d.Z, 0, 1)
				c = light.skyHorizon.Lerp(light.skyTop, math.Sqrt(elev))
				if cloudy && d.Z > 0.02 {
					own = ownerCloud
					if clouds.hi == 0 {
						clouds.lo = int32(px)
					}
					clouds.hi = int32(px) + 1
				}
			} else {
				// Intersect z=0 plane.
				s := -v.pos.Z / dir.Z
				gx := v.pos.X + dir.X*s
				gy := v.pos.Y + dir.Y*s
				c = shaded[layout.MaterialAt(gx, gy)]
				// Distance haze toward the horizon color.
				dist := math.Hypot(gx-v.pos.X, gy-v.pos.Y)
				haze := geom.Clamp(dist/1200, 0, 0.7)
				c = c.Lerp(light.skyHorizon, haze)
			}
			r.static[py*r.w+px] = c
			r.owner[py*r.w+px] = own
		}
		r.clouds[py] = clouds
	}
}

// drawClouds blends value-noise clouds, drifting with time, over the
// sky pixels no building covers. Each row goes in two passes: the
// cloud-plane coordinates of its span, then the noise over them.
func (r *Renderer) drawClouds(t float64) {
	v, light := &r.view, &r.light
	thresh := 1 - r.tile.Layout.Spec.Weather.CloudCover
	cloud := video.Color{R: 235, G: 235, B: 238}.Scale(0.55 + 0.45*light.diffuse)
	for py, cols := range r.clouds {
		if cols.lo == cols.hi {
			continue
		}
		dy := (v.halfH - float64(py) - 0.5) / v.focal
		rise := v.up.Scale(dy)
		// Project each direction onto a cloud layer plane.
		xy := r.cloudXY[cols.lo:cols.hi]
		for i, ray := range r.rays[cols.lo:cols.hi] {
			d := ray.Add(rise).Norm()
			scale := 400.0
			cx := d.X/d.Z*scale + t*6 // clouds drift east
			cy := d.Y / d.Z * scale
			xy[i] = geom.Vec2{X: cx * 0.01, Y: cy * 0.01}
		}
		// Sample two octaves of noise where no building covers the sky.
		row := py*r.w + int(cols.lo)
		owner := r.owner[row : row+len(xy)]
		blocks := r.dirty[(py>>1)*r.rowWords:]
		for i, p := range xy {
			if owner[i] != ownerCloud {
				continue
			}
			n := 0.65*r.noise[0].at(p.X, p.Y) + 0.35*r.noise[1].at(p.X*2.7, p.Y*2.7)
			if n > thresh {
				density := geom.Clamp((n-thresh)/(1.02-thresh), 0, 1)
				r.rgb[row+i] = r.static[row+i].Lerp(cloud, density)
				px := int(cols.lo) + i
				blocks[px>>7] |= 1 << (px >> 1 & 63)
			}
		}
	}
}

// noiseCell is 2D value noise in [0, 1] that remembers the four lattice
// hashes of the cell it sampled last: neighbouring pixels often fall in
// the same cell.
type noiseCell struct {
	seed               uint64
	xi, yi             float64 // the remembered cell; NaN before the first sample
	v00, v10, v01, v11 float64
}

func newNoiseCell(seed uint64) noiseCell { return noiseCell{seed: seed, xi: math.NaN()} }

func (c *noiseCell) at(x, y float64) float64 {
	xi, yi := math.Floor(x), math.Floor(y)
	fx, fy := x-xi, y-yi
	// Smoothstep interpolation weights.
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	if xi != c.xi || yi != c.yi {
		c.xi, c.yi = xi, yi
		c.v00 = latticeHash(int64(xi), int64(yi), c.seed)
		c.v10 = latticeHash(int64(xi)+1, int64(yi), c.seed)
		c.v01 = latticeHash(int64(xi), int64(yi)+1, c.seed)
		c.v11 = latticeHash(int64(xi)+1, int64(yi)+1, c.seed)
	}
	top := c.v00 + (c.v10-c.v00)*sx
	bot := c.v01 + (c.v11-c.v01)*sx
	return top + (bot-top)*sy
}

func latticeHash(x, y int64, seed uint64) float64 {
	h := uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xbf58476d1ce4e5b9 ^ seed
	h ^= h >> 31
	h *= stablehash.MixMul
	h ^= h >> 29
	return float64(h>>11) / (1 << 53)
}

// face is one rasterizable quad, projected: four screen-space corners
// (wound consistently), a color, and an optional plate texture.
type face struct {
	sx, sy [4]float64
	color  video.Color
	plate  string // when non-empty, texture the quad with plate glyphs
}

// faceKey orders faces for the painter's algorithm: far to near by mean
// camera depth, and faces of equal depth in the order they were
// collected. The order is total, so "the face drawn last" is well
// defined — which is what lets a pixel's static owner stand in for all
// the static faces behind it (DESIGN.md §5.15).
type faceKey struct {
	depth float64
	idx   int32
}

func sortFaces(order []faceKey) {
	slices.SortFunc(order, func(a, b faceKey) int {
		switch {
		case a.depth > b.depth:
			return -1
		case a.depth < b.depth:
			return 1
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// appendFace projects a quad and queues it under its sort key, leaving
// its color to the caller. It returns nil for a face that draws
// nothing: one with a vertex behind the near plane (acceptable for
// elevated benchmark cameras), or one wholly outside the image.
func (r *Renderer) appendFace(v *[4]geom.Vec3, depth float64, plate string) *face {
	r.faces = append(r.faces, face{plate: plate})
	f := &r.faces[len(r.faces)-1]
	for i, p := range v {
		var ok bool
		if f.sx[i], f.sy[i], ok = r.view.project(p); !ok {
			r.faces = r.faces[:len(r.faces)-1]
			return nil
		}
	}
	// No scanline crosses a face whose corners are all at or above the
	// first pixel centre or all below the last, and fill rejects every
	// span of a face left or right of the image; the pixel of margin
	// there covers the rounding of fill's edge interpolation.
	sx, sy := &f.sx, &f.sy
	if max(sy[0], sy[1], sy[2], sy[3]) <= 0.5 || min(sy[0], sy[1], sy[2], sy[3]) > float64(r.h)-0.5 ||
		max(sx[0], sx[1], sx[2], sx[3]) <= -1.5 || min(sx[0], sx[1], sx[2], sx[3]) >= float64(r.w)+0.5 {
		r.faces = r.faces[:len(r.faces)-1]
		return nil
	}
	r.order = append(r.order, faceKey{depth: depth, idx: int32(len(r.faces) - 1)})
	return f
}

// boxQuads lists the five visible faces (4 walls + roof) of a box by
// corner number — footprint corner (−−, +−, ++, −+ in x, y) plus 4 for
// the top — with each wall's outward normal before rotation.
var boxQuads = [5]struct {
	corner [4]uint8
	nx, ny float64
}{
	{[4]uint8{1, 2, 6, 5}, 1, 0}, // +X, the front when yaw=0
	{[4]uint8{3, 0, 4, 7}, -1, 0},
	{[4]uint8{0, 1, 5, 4}, 0, -1},
	{[4]uint8{2, 3, 7, 6}, 0, 1},
	{[4]uint8{4, 5, 6, 7}, 0, 0}, // roof
}

// appendBoxFaces queues the camera-facing faces of an axis-aligned box,
// optionally rotated by yaw about its center.
func (r *Renderer) appendBoxFaces(lo, hi geom.Vec3, yaw float64, c video.Color) {
	cx, cy := (lo.X+hi.X)/2, (lo.Y+hi.Y)/2
	var s, co float64
	if yaw != 0 {
		s, co = math.Sincos(yaw)
	}
	var corner [8]geom.Vec3
	for i, xy := range [4][2]float64{{lo.X, lo.Y}, {hi.X, lo.Y}, {hi.X, hi.Y}, {lo.X, hi.Y}} {
		x, y := xy[0], xy[1]
		if yaw != 0 {
			dx, dy := x-cx, y-cy
			x, y = cx+dx*co-dy*s, cy+dx*s+dy*co
		}
		corner[i] = geom.Vec3{X: x, Y: y, Z: lo.Z}
		corner[i+4] = geom.Vec3{X: x, Y: y, Z: hi.Z}
	}
	for qi := range boxQuads {
		q := &boxQuads[qi]
		v := [4]geom.Vec3{corner[q.corner[0]], corner[q.corner[1]], corner[q.corner[2]], corner[q.corner[3]]}
		normal := geom.Vec3{X: q.nx, Y: q.ny}
		switch {
		case q.nx == 0 && q.ny == 0:
			normal = geom.Vec3{Z: 1}
		case yaw != 0:
			normal = geom.Vec3{X: q.nx*co - q.ny*s, Y: q.nx*s + q.ny*co}
		}
		// Back-face culling: skip faces pointing away from the camera.
		center := v[0].Add(v[2]).Scale(0.5)
		if normal.Dot(r.view.pos.Sub(center)) <= 0 {
			continue
		}
		depth := r.meanDepth(&v)
		if depth <= 0 {
			continue
		}
		if f := r.appendFace(&v, depth, ""); f != nil {
			f.color = r.light.shade(c, normal)
		}
	}
}

func (r *Renderer) meanDepth(v *[4]geom.Vec3) float64 {
	d := 0.0
	for _, p := range v {
		d += r.view.depth(p)
	}
	return d / 4
}

// drawObjects collects the faces of the tile's moving objects, sorts
// them far to near and rasterizes each over the static layer wherever
// it is in front of the pixel's static owner. Painting every face of
// the scene far to near leaves each pixel showing the covering face
// that sorts last; the static face with that property is the pixel's
// owner, so comparing against the owner alone gives the same image.
func (r *Renderer) drawObjects(t float64) {
	r.objs = r.tile.AppendObjectsAt(r.objs[:0], t)
	r.faces, r.order = r.faces[:0], r.order[:0]
	for i := range r.objs {
		o := &r.objs[i]
		// appendFace would drop every face of an object outside the view.
		if !r.view.outside(o.Center, cullRadius(o)) {
			r.appendObjectFaces(o)
		}
	}
	sortFaces(r.order)
	for _, k := range r.order {
		// Static faces were collected first, so at equal depth the moving
		// face sorts later and wins: it is in front of every rank whose
		// depth is at least its own, and depths falls with rank.
		lo, hi := 0, len(r.depths)
		for lo < hi {
			if mid := (lo + hi) / 2; r.depths[mid] >= k.depth {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		r.fill(&r.faces[k.idx], ownerFace+uint16(lo), 0)
	}
}

// appendObjectFaces queues the faces of a moving object: its box and a
// vehicle's plate.
func (r *Renderer) appendObjectFaces(o *vcity.SceneObject) {
	lo := geom.Vec3{X: o.Center.X - o.HalfL, Y: o.Center.Y - o.HalfW, Z: o.Center.Z - o.HalfH}
	hi := geom.Vec3{X: o.Center.X + o.HalfL, Y: o.Center.Y + o.HalfW, Z: o.Center.Z + o.HalfH}
	r.appendBoxFaces(lo, hi, o.Heading, o.Color)
	if o.Class == vcity.ClassVehicle && o.Plate != "" {
		r.appendPlateFace(o)
	}
}

// cullRadius bounds how far from o.Center any corner of the faces
// appendObjectFaces queues for o can lie: the box's eight corners, and a
// vehicle's plate quad, which stands 0.02 m in front of the box at a
// fixed 0.5 m height and so need not lie inside it. The centimetre on
// top covers the rounding of the corners' arithmetic.
func cullRadius(o *vcity.SceneObject) float64 {
	r2 := o.HalfL*o.HalfL + o.HalfW*o.HalfW + o.HalfH*o.HalfH
	if o.Class == vcity.ClassVehicle && o.Plate != "" {
		l := o.HalfL + plateGap
		dz := math.Abs(plateZ-o.Center.Z) + plateHalfH
		r2 = max(r2, l*l+plateHalfW*plateHalfW+dz*dz)
	}
	return math.Sqrt(r2) + 0.01
}

// The front license plate: a 0.52×0.11 m quad plateGap ahead of the
// vehicle's +heading face, centred plateZ above the ground.
const (
	plateGap               = 0.02
	plateHalfW, plateHalfH = 0.26, 0.055
	plateZ                 = 0.5
)

// appendPlateFace queues the front license plate.
func (r *Renderer) appendPlateFace(o *vcity.SceneObject) {
	s, c := math.Sincos(o.Heading)
	fwd2 := geom.Vec2{X: c, Y: s}
	side := geom.Vec2{X: -s, Y: c}
	center := geom.Vec2{X: o.Center.X, Y: o.Center.Y}.Add(fwd2.Scale(o.HalfL + plateGap))
	mk := func(sgnSide, sgnZ float64) geom.Vec3 {
		p := center.Add(side.Scale(sgnSide * plateHalfW))
		return geom.Vec3{X: p.X, Y: p.Y, Z: plateZ + sgnZ*plateHalfH}
	}
	// Wound so that (v1-v0) is the plate's left-to-right (text) axis as
	// seen from the front, and (v3-v0) its top-to-bottom axis. Viewed
	// head-on, text runs left to right: from the camera's perspective
	// the vehicle's right side (-side) is on the left.
	v := [4]geom.Vec3{mk(-1, 1), mk(1, 1), mk(1, -1), mk(-1, -1)}
	normal := geom.Vec3{X: c, Y: s}
	centerV := v[0].Add(v[2]).Scale(0.5)
	if normal.Dot(r.view.pos.Sub(centerV)) <= 0 {
		return
	}
	d := r.meanDepth(&v)
	if d <= 0 {
		return
	}
	if f := r.appendFace(&v, d-0.05, o.Plate); f != nil {
		f.color = video.Color{R: 240, G: 240, B: 240}
	}
}

// fill scanline-fills one projected quad. While the layer is built
// (own != 0) the face is painted into the static layer and becomes the
// owner of every pixel it covers; in a frame (own == 0) it is painted
// into rgb only over pixels whose owner is below limit. Plate faces are
// textured with glyphs via inverse bilinear UV estimation.
func (r *Renderer) fill(f *face, limit, own uint16) {
	sx, sy := &f.sx, &f.sy
	minY := int(math.Floor(min(sy[0], sy[1], sy[2], sy[3])))
	maxY := int(math.Ceil(max(sy[0], sy[1], sy[2], sy[3])))
	minY = geom.ClampInt(minY, 0, r.h-1)
	maxY = geom.ClampInt(maxY, 0, r.h-1)
	for py := minY; py <= maxY; py++ {
		yc := float64(py) + 0.5
		// Collect intersections of the scanline with the quad edges.
		var xs [4]float64
		n := 0
		for i := 0; i < 4; i++ {
			j := (i + 1) % 4
			y0, y1 := sy[i], sy[j]
			if (y0 <= yc) == (y1 <= yc) {
				continue
			}
			tEdge := (yc - y0) / (y1 - y0)
			xs[n] = sx[i] + (sx[j]-sx[i])*tEdge
			n++
		}
		if n < 2 {
			continue
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs[1:n] {
			lo = min(lo, x)
			hi = max(hi, x)
		}
		x0, x1 := int(math.Floor(lo+0.5)), int(math.Ceil(hi-0.5))
		if x1 < 0 || x0 > r.w-1 {
			// Wholly left or right of the image. Clamping first would
			// paint such a span into the edge column.
			continue
		}
		x0, x1 = max(x0, 0), min(x1, r.w-1)
		row := py * r.w
		if own != 0 {
			for i := row + x0; i <= row+x1; i++ {
				r.static[i] = f.color
				r.owner[i] = own
			}
			continue
		}
		for px := x0; px <= x1; px++ {
			if r.owner[row+px] >= limit {
				continue
			}
			c := f.color
			if f.plate != "" {
				c = plateTexel(f, float64(px)+0.5, yc)
			}
			r.rgb[row+px] = c
		}
		r.markDirty(py, x0, x1)
	}
}

// plateTexel samples the plate texture at screen point (x, y) using an
// affine approximation of the quad's UV mapping (adequate for the small
// screen footprint of plates).
func plateTexel(f *face, x, y float64) video.Color {
	sx, sy := &f.sx, &f.sy
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
func (r *Renderer) drawRain(t float64) {
	var density float64
	switch r.tile.Layout.Spec.Weather.Precip {
	case vcity.Dry:
		return
	case vcity.Drizzle:
		density = 0.0005
	case vcity.Rain:
		density = 0.002
	}
	n := int(float64(r.w*r.h) * density)
	frame := int64(t * 1000)
	rng := vcity.NewRNG(uint64(frame)*0x9e3779b97f4a7c15 + uint64(r.tile.Index))
	for i := 0; i < n; i++ {
		x := rng.Intn(r.w)
		y := rng.Intn(r.h)
		length := 3 + rng.Intn(6)
		for dy := 0; dy < length && y+dy < r.h; dy++ {
			idx := (y+dy)*r.w + x
			r.rgb[idx] = r.rgb[idx].Lerp(video.Color{R: 200, G: 205, B: 215}, 0.45)
			r.markDirty(y+dy, x, x)
		}
	}
}

// markDirty records that pixels x0..x1 of row py may differ from the
// static layer.
func (r *Renderer) markDirty(py, x0, x1 int) {
	blocks := r.dirty[(py>>1)*r.rowWords:]
	b0, b1 := x0>>1, x1>>1
	for w := b0 >> 6; w <= b1>>6; w++ {
		mask := ^uint64(0)
		if w == b0>>6 {
			mask &= ^uint64(0) << (b0 & 63)
		}
		if w == b1>>6 {
			mask &= ^uint64(0) >> (63 - b1&63)
		}
		blocks[w] |= mask
	}
}

// convertDirty converts the blocks this frame changed to YUV 4:2:0 in
// dst; the rest of dst already holds the layer's conversion.
func (r *Renderer) convertDirty(dst *video.Frame) {
	for cy := 0; cy < dst.ChromaH(); cy++ {
		for wi, word := range r.dirty[cy*r.rowWords : (cy+1)*r.rowWords] {
			if word == 0 {
				continue
			}
			r.dirty[cy*r.rowWords+wi] = 0
			for ; word != 0; word &= word - 1 {
				r.convertBlock(dst, wi*64+bits.TrailingZeros64(word), cy)
			}
		}
	}
}

// convertBlock converts one 2×2 pixel block of rgb to YUV 4:2:0 in f —
// luma per pixel, chroma averaged over the block's pixels inside the
// image — and puts the static layer back into rgb for the next frame.
func (r *Renderer) convertBlock(f *video.Frame, cx, cy int) {
	var su, sv, n int
	for y := cy * 2; y < cy*2+2 && y < r.h; y++ {
		for x := cx * 2; x < cx*2+2 && x < r.w; x++ {
			i := y*r.w + x
			Y, u, v := r.rgb[i].YUV()
			r.rgb[i] = r.static[i]
			f.Y[i] = Y
			su += int(u)
			sv += int(v)
			n++
		}
	}
	ci := cy*f.ChromaW() + cx
	f.U[ci] = byte(su / n)
	f.V[ci] = byte(sv / n)
}
