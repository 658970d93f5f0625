package codec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/video"
)

// encStates returns the pooled state an encoder holds: its own, or its
// tiles'.
func encStates(e *Encoder) []*encState {
	if e.tiles == nil {
		return []*encState{e.encState}
	}
	var out []*encState
	for i := range e.tiles {
		out = append(out, e.tiles[i].enc.encState)
	}
	return out
}

// unpooledEncoder is NewEncoder with every piece of state freshly
// allocated (zeroed), as encoders were built before the pool.
func unpooledEncoder(t *testing.T, cfg Config) *Encoder {
	t.Helper()
	e, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(e *Encoder) { e.encState = newEncState(e.curY.w, e.curY.h) }
	if e.tiles == nil {
		fresh(e)
	}
	for i := range e.tiles {
		fresh(e.tiles[i].enc)
	}
	return e
}

// poison overwrites everything an encoder's state carries: every plane
// byte, every macroblock's decision, masks and levels, the whole
// bitstream scratch.
func (s *encState) poison() {
	for _, p := range []*plane{s.refY, s.refU, s.refV, s.curY, s.curU, s.curV} {
		for i := range p.pix {
			p.pix[i] = 0xAA
		}
	}
	for i := range s.mbs {
		mb := &s.mbs[i]
		mb.skip, mb.mvx, mb.mvy = true, -0x2AAA, 0x2AAA
		for b := range mb.mask {
			mb.mask[b] = 0xAAAAAAAAAAAAAAAA
			for l := range mb.levels[b] {
				mb.levels[b][l] = -0x55555556 // 0xAAAAAAAA
			}
		}
	}
	s.wbuf = s.wbuf[:cap(s.wbuf)]
	for i := range s.wbuf {
		s.wbuf[i] = 0xAA
	}
}

func encodeAll(t *testing.T, e *Encoder, v *video.Video) [][]byte {
	t.Helper()
	var out [][]byte
	for _, f := range v.Frames {
		ef, err := e.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ef.Data)
	}
	return out
}

// TestPooledEncoderIsFresh: an encoder built on another stream's state
// writes the access units of one built on fresh memory. Stream A is
// encoded and its encoder's state poisoned and released; stream B — other
// visible dimensions, the same padded ones, frame for frame and tile for
// tile — is then encoded on an encoder taken from the pool, untiled and
// 2×2-tiled, at constant QP and under rate control, serial and
// row-parallel. Nothing is cleared on reuse, so every plane sample, mask,
// level and scratch byte B reads must be one B wrote.
func TestPooledEncoderIsFresh(t *testing.T) {
	a, b := mixedVideo(80, 80, 5, 3), mixedVideo(71, 67, 7, 9)
	for _, cfg := range []Config{
		{QP: 18, GOP: 3},
		{QP: 18, GOP: 3, Workers: 4},
		{BitrateKbps: 120, GOP: 4},
		{QP: 20, GOP: 3, TileRows: 2, TileCols: 2},
		{BitrateKbps: 200, GOP: 4, TileRows: 2, TileCols: 2, Preset: PresetHEVC},
	} {
		name := fmt.Sprintf("%+v", cfg)
		cfgA, cfgB := cfg, cfg
		cfgA.Width, cfgA.Height = a.Resolution()
		cfgB.Width, cfgB.Height = b.Resolution()
		ref := unpooledEncoder(t, cfgB)
		want := encodeAll(t, ref, b)

		// sync.Pool may drop what it is handed (a quarter of the time under
		// -race, and across a collection): try until state was reused.
		reused := false
		for try := 0; try < 20 && !reused; try++ {
			encA, err := NewEncoder(cfgA)
			if err != nil {
				t.Fatal(err)
			}
			encodeAll(t, encA, a)
			poisoned := map[*encState]bool{}
			for _, s := range encStates(encA) {
				s.poison()
				poisoned[s] = true
			}
			encA.Release()

			encB, err := NewEncoder(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range encStates(encB) {
				reused = reused || poisoned[s]
			}
			if encB.Config() != ref.Config() || encB.Config().Width != 71 || encB.Config().Height != 67 {
				t.Fatalf("%s: pooled encoder's Config() = %+v, want %+v", name, encB.Config(), ref.Config())
			}
			got := encodeAll(t, encB, b)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: frame %d from an encoder on reused state (reused: %v) diverges from a never-pooled encoder's", name, i, reused)
				}
			}
			encB.Release()
		}
		if !reused {
			t.Fatalf("%s: 20 released encoders, none of their state reused", name)
		}
		ref.Release()
	}
}

// TestReleasedEncoderRefusesFrames: after Release the planes may be
// another encoder's, so Encode fails — untiled and tiled — and a second
// Release hands nothing back twice.
func TestReleasedEncoderRefusesFrames(t *testing.T) {
	v := mixedVideo(64, 48, 2, 5)
	for _, cfg := range []Config{{Width: 64, Height: 48}, {Width: 64, Height: 48, TileRows: 2, TileCols: 2}} {
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Encode(v.Frames[0]); err != nil {
			t.Fatal(err)
		}
		states := encStates(enc)
		enc.Release()
		enc.Release()
		if _, err := enc.Encode(v.Frames[1]); err == nil || !strings.Contains(err.Error(), "released") {
			t.Fatalf("tiles %dx%d: Encode after Release = %v, want the released-encoder error", cfg.TileRows, cfg.TileCols, err)
		}
		// Were the state put back twice, two encoders would now share it.
		held := map[*encState]bool{}
		for i := 0; i < 2*len(states)+2; i++ {
			e, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range encStates(e) {
				if held[s] {
					t.Fatalf("tiles %dx%d: one state handed to two live encoders", cfg.TileRows, cfg.TileCols)
				}
				held[s] = true
			}
		}
	}
}
