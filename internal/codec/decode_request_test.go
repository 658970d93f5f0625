package codec

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/metrics"
	"repro/internal/video"
)

// referenceDecode is the oracle every DecodeRequest result is held to:
// one Decoder fed every access unit in stream order, sharing none of
// DecodeRequest's window, chain, tile-selection or worker logic (on a
// tile-mode stream it is the Decoder's own all-tile stitch).
func referenceDecode(t testing.TB, e *Encoded) *video.Video {
	t.Helper()
	dec, err := NewDecoder(e.Config)
	if err != nil {
		t.Fatal(err)
	}
	out := video.NewVideo(e.Config.withDefaults().FPS)
	for i, au := range e.Frames {
		fr, err := dec.Decode(au.Data)
		if err != nil {
			t.Fatalf("reference decode frame %d: %v", i, err)
		}
		out.Append(fr)
	}
	return out
}

// regionEqual compares the pixels of one tile rectangle (tile origins
// are even, so the chroma rectangle is exact).
func regionEqual(a, b *video.Frame, r TileRect) bool {
	for y := r.Y; y < r.Y+r.H; y++ {
		if !bytes.Equal(a.Y[y*a.W+r.X:y*a.W+r.X+r.W], b.Y[y*b.W+r.X:y*b.W+r.X+r.W]) {
			return false
		}
	}
	cw := a.ChromaW()
	cx, cy := r.X/2, r.Y/2
	for y := cy; y < cy+(r.H+1)/2; y++ {
		lo, hi := y*cw+cx, y*cw+cx+(r.W+1)/2
		if !bytes.Equal(a.U[lo:hi], b.U[lo:hi]) || !bytes.Equal(a.V[lo:hi], b.V[lo:hi]) {
			return false
		}
	}
	return true
}

// checkRequest runs one request and holds the result to the reference:
// exactly Hi−Lo full-dimension frames with absolute indices, selected
// tiles byte-identical to the reference decode, unselected tiles black.
func checkRequest(t testing.TB, e *Encoded, ref *video.Video, req Request) {
	t.Helper()
	got, err := e.DecodeRequest(req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	if got.FPS != ref.FPS {
		t.Fatalf("%+v: FPS %d, want %d", req, got.FPS, ref.FPS)
	}
	if len(got.Frames) != req.Hi-req.Lo {
		t.Fatalf("%+v: %d frames, want %d", req, len(got.Frames), req.Hi-req.Lo)
	}
	cfg := e.Config.withDefaults()
	rects := cfg.TileRects()
	selected := make([]bool, len(rects))
	for _, tile := range req.Tiles {
		selected[tile] = true
	}
	black := video.NewFrame(cfg.Width, cfg.Height)
	for i, f := range got.Frames {
		want := ref.Frames[req.Lo+i]
		if f.Index != req.Lo+i {
			t.Fatalf("%+v: frame %d has Index %d, want absolute %d", req, i, f.Index, req.Lo+i)
		}
		if f.W != want.W || f.H != want.H {
			t.Fatalf("%+v: frame %d is %dx%d, want %dx%d", req, i, f.W, f.H, want.W, want.H)
		}
		for tile, r := range rects {
			if len(req.Tiles) == 0 || selected[tile] {
				if !regionEqual(f, want, r) {
					t.Fatalf("%+v: frame %d tile %d differs from the reference decode", req, req.Lo+i, tile)
				}
			} else if !regionEqual(f, black, r) {
				t.Fatalf("%+v: frame %d unselected tile %d is not black", req, req.Lo+i, tile)
			}
		}
	}
}

// identityStream is one stream of the identity table.
type identityStream struct {
	name string
	enc  *Encoded
	gop  int
}

// identityStreams returns the golden fixtures as checked in (untiled),
// the same sources re-encoded on a 2×2 grid, and the stream shapes the
// corpus lacks: a GOP-aligned length, a single GOP, and a hand-built
// stream whose Config carries no frame rate.
func identityStreams(t testing.TB) []identityStream {
	t.Helper()
	var out []identityStream
	for _, gc := range goldenCases() {
		src := gc.src()
		cfg := gc.cfg
		cfg.Width, cfg.Height = src.Resolution()
		cfg.FPS = src.FPS
		streamPath, digestPath := goldenPaths(gc.name)
		data, err := os.ReadFile(streamPath)
		if err != nil {
			t.Fatal(err)
		}
		fix, err := unmarshalStream(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The reference decode of a fixture is pinned by its golden digest,
		// which ties this table to the corpus.
		digest, err := os.ReadFile(digestPath)
		if err != nil {
			t.Fatal(err)
		}
		if d := decodedDigest(referenceDecode(t, fix)); d != string(bytes.TrimSpace(digest)) {
			t.Fatalf("%s: reference decode digest %s, want golden %s", gc.name, d, bytes.TrimSpace(digest))
		}
		out = append(out, identityStream{gc.name, fix, gc.cfg.GOP})

		cfg = gc.cfg
		cfg.TileRows, cfg.TileCols = 2, 2
		tiled, err := EncodeVideo(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, identityStream{gc.name + "/2x2", tiled, gc.cfg.GOP})
	}
	for _, extra := range []struct {
		name string
		cfg  Config
		n    int
	}{
		{"gop-aligned", Config{QP: 16, GOP: 4}, 12},
		{"single-gop", Config{QP: 22, GOP: 30}, 8},
	} {
		enc, err := EncodeVideo(gradientVideo(96, 64, extra.n), extra.cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, identityStream{extra.name, enc, extra.cfg.GOP})
	}
	// A demuxed or hand-built stream may leave Config.FPS unset: every
	// request must resolve the same default, whole clip or window.
	noFPS := *out[0].enc
	noFPS.Config.FPS = 0
	out = append(out, identityStream{out[0].name + "/fps0", &noFPS, out[0].gop})
	return out
}

// identityWindows returns the named windows of an n-frame stream —
// full, keyframe-aligned, mid-GOP (P-frame seeded, straddling a
// keyframe), single frame, empty — plus every window when the stream is
// short enough to sweep.
func identityWindows(n, gop int) [][2]int {
	if gop > n-2 {
		gop = n / 2 // single-GOP stream: "aligned" windows just open mid-stream
	}
	ws := [][2]int{{0, n}, {gop, n}, {gop - 1, gop + 2}, {1, n - 1}, {gop + 1, gop + 2}, {gop, gop}}
	if n <= 10 {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				ws = append(ws, [2]int{lo, hi})
			}
		}
	}
	return ws
}

// TestDecodeRequestIdentity is the decode path's byte-identity table:
// streams × windows × tile sets × worker counts, each held to the
// reference decode. It covers what the per-entry-point suites used to
// (parallel vs serial, every range vs the full-decode slice, tile ROI vs
// full frame) because there is only the one entry point left; workers=8
// on the untiled whole-clip rows has more workers than chains.
func TestDecodeRequestIdentity(t *testing.T) {
	for _, s := range identityStreams(t) {
		t.Run(s.name, func(t *testing.T) {
			ref := referenceDecode(t, s.enc)
			if want := 30; s.enc.Config.FPS == 0 && ref.FPS != want {
				t.Fatalf("reference FPS %d, want the default %d", ref.FPS, want)
			}
			tileSets := [][]int{nil, {0}}
			if s.enc.Config.Tiled() {
				tileSets = [][]int{nil, {2}, {3, 0}, {0, 1, 2, 3}}
			}
			for _, w := range identityWindows(len(s.enc.Frames), s.gop) {
				for _, tiles := range tileSets {
					for _, workers := range []int{1, 2, 8} {
						checkRequest(t, s.enc, ref, Request{Lo: w[0], Hi: w[1], Tiles: tiles, Workers: workers})
					}
				}
			}

			// The four signatures bench/ calls are one-line spellings of a
			// request and must stay exactly that.
			n := len(s.enc.Frames)
			for name, decode := range map[string]func() (*video.Video, error){
				"Decode":         s.enc.Decode,
				"DecodeParallel": func() (*video.Video, error) { return s.enc.DecodeParallel(8) },
				"DecodeRange":    func() (*video.Video, error) { return s.enc.DecodeRange(0, n) },
				"DecodeTiles":    func() (*video.Video, error) { return s.enc.DecodeTiles(2, 0, n, nil) },
			} {
				got, err := decode()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.FPS != ref.FPS || len(got.Frames) != n || decodedDigest(got) != decodedDigest(ref) {
					t.Fatalf("%s differs from the reference decode", name)
				}
			}
		})
	}
}

// TestOneChainRequestIsOneWorkItem: a whole-clip request on a one-GOP
// untiled stream has one work item however many workers it is offered —
// it publishes exactly one codec.gop span covering every frame, and no
// other stage.
func TestOneChainRequestIsOneWorkItem(t *testing.T) {
	enc, err := EncodeVideo(gradientVideo(96, 64, 8), Config{QP: 22, GOP: 30})
	if err != nil {
		t.Fatal(err)
	}
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(false)
	base := metrics.Capture()
	if _, err := enc.DecodeRequest(Request{Hi: len(enc.Frames), Workers: 8}); err != nil {
		t.Fatal(err)
	}
	stages := metrics.Capture().Sub(base).Stages
	gop := stages[metrics.StageGOPDecode.String()]
	if len(stages) != 1 || gop.Count != 1 || gop.Frames != int64(len(enc.Frames)) {
		t.Fatalf("stages %+v, want one codec.gop span of %d frames and nothing else", stages, len(enc.Frames))
	}
}

// TestDecodeRequestErrors: a request outside the stream or the grid is
// rejected before any decode, and a stream with no keyframe to seed from
// reports the decoder's error at every worker count.
func TestDecodeRequestErrors(t *testing.T) {
	src := gradientVideo(64, 48, 8)
	untiled, err := EncodeVideo(src, Config{QP: 24, GOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := EncodeVideo(src, Config{QP: 10, GOP: 4, TileRows: 2, TileCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	midGOP := &Encoded{Config: untiled.Config, Frames: untiled.Frames[1:]}
	for _, tc := range []struct {
		name string
		enc  *Encoded
		req  Request
	}{
		{"negative start", untiled, Request{Lo: -1, Hi: 3}},
		{"past the end", untiled, Request{Lo: 0, Hi: 9}},
		{"inverted", untiled, Request{Lo: 4, Hi: 2}},
		{"inverted, tiled", tiled, Request{Lo: 2, Hi: 1}},
		{"tile outside grid", tiled, Request{Hi: 4, Tiles: []int{4}}},
		{"negative tile", tiled, Request{Hi: 4, Tiles: []int{-1}}},
		{"duplicate tile", tiled, Request{Hi: 4, Tiles: []int{1, 1}}},
		{"tile on untiled stream", untiled, Request{Hi: 4, Tiles: []int{1}}},
		{"stream opens mid-GOP", midGOP, Request{Hi: 7}},
		{"stream opens mid-GOP, window", midGOP, Request{Lo: 1, Hi: 2}},
	} {
		for _, workers := range []int{1, 4} {
			tc.req.Workers = workers
			if _, err := tc.enc.DecodeRequest(tc.req); err == nil {
				t.Errorf("%s (workers=%d): request accepted, want error", tc.name, workers)
			}
		}
	}
	empty, err := untiled.DecodeRequest(Request{Lo: 2, Hi: 2})
	if err != nil || len(empty.Frames) != 0 {
		t.Fatalf("empty window: %v, %d frames", err, len(empty.Frames))
	}
}

func TestKeyframeBeforeRangeCostAndChains(t *testing.T) {
	enc, err := EncodeVideo(gradientVideo(48, 32, 13), Config{QP: 20, GOP: 4}) // keyframes at 0, 4, 8, 12
	if err != nil {
		t.Fatal(err)
	}
	wantKey := []int{0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12}
	for i, want := range wantKey {
		if got := enc.KeyframeBefore(i); got != want {
			t.Errorf("KeyframeBefore(%d) = %d, want %d", i, got, want)
		}
	}
	if got := enc.RangeCost(5, 7); got != 3 { // seeds at 4
		t.Errorf("RangeCost(5, 7) = %d, want 3", got)
	}
	if got := enc.RangeCost(8, 9); got != 1 { // window opens on a keyframe
		t.Errorf("RangeCost(8, 9) = %d, want 1", got)
	}
	if got := enc.RangeCost(3, 3); got != 0 {
		t.Errorf("RangeCost(3, 3) = %d, want 0", got)
	}
	for _, tc := range []struct {
		lo, hi int
		want   []chainSpan
	}{
		{0, 13, []chainSpan{{0, 4}, {4, 8}, {8, 12}, {12, 13}}},
		{5, 7, []chainSpan{{4, 7}}},
		{6, 10, []chainSpan{{4, 8}, {8, 10}}},
		{8, 9, []chainSpan{{8, 9}}},
		{3, 3, nil},
	} {
		if got := enc.coveringChains(tc.lo, tc.hi); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("coveringChains(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// FuzzDecodeRequest throws arbitrary windows, tile lists and worker
// counts at an untiled and a 2×2-tiled stream: a request is either
// rejected cleanly or decodes to exactly the reference frames — never a
// panic, and never frames for a request that should have been rejected.
func FuzzDecodeRequest(f *testing.F) {
	src := mixedVideo(64, 48, 9, 11)
	var streams [2]*Encoded
	var refs [2]*video.Video
	for i, cfg := range []Config{{QP: 20, GOP: 4}, {QP: 20, GOP: 4, TileRows: 2, TileCols: 2}} {
		enc, err := EncodeVideo(src, cfg)
		if err != nil {
			f.Fatal(err)
		}
		streams[i], refs[i] = enc, referenceDecode(f, enc)
	}
	f.Add(false, 0, 9, []byte{}, 1)
	f.Add(false, 0, 9, []byte{}, 8) // more workers than chains
	f.Add(true, 0, 9, []byte{}, 8)
	f.Add(true, 5, 7, []byte{2}, 2)
	f.Add(true, 3, 3, []byte{3, 0}, 0)
	f.Add(true, 0, 4, []byte{1, 1}, 1) // duplicate
	f.Add(true, 0, 4, []byte{4}, 1)    // outside the grid
	f.Add(false, 0, 4, []byte{0xFF}, 3)
	f.Add(false, -1, 4, []byte{}, 1)
	f.Add(false, 6, 2, []byte{}, -5)
	f.Add(true, 0, 1<<40, []byte{}, 1<<30)
	f.Fuzz(func(t *testing.T, tiled bool, lo, hi int, tileBytes []byte, workers int) {
		enc, ref := streams[0], refs[0]
		if tiled {
			enc, ref = streams[1], refs[1]
		}
		if len(tileBytes) > 2*maxTiles {
			tileBytes = tileBytes[:2*maxTiles]
		}
		var tiles []int
		valid := lo >= 0 && hi <= len(enc.Frames) && lo <= hi
		seen := map[int]bool{}
		for _, b := range tileBytes {
			tile := int(int8(b))
			if tile < 0 || tile >= enc.Config.TileCount() || seen[tile] {
				valid = false
			}
			seen[tile] = true
			tiles = append(tiles, tile)
		}
		req := Request{Lo: lo, Hi: hi, Tiles: tiles, Workers: workers}
		if !valid {
			if v, err := enc.DecodeRequest(req); err == nil {
				t.Fatalf("%+v: accepted an invalid request (%d frames)", req, len(v.Frames))
			}
			return
		}
		checkRequest(t, enc, ref, req)
	})
}
