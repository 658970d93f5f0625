package codec

import (
	"testing"
)

// TestDecodeSteadyStateAllocs pins the decoder's steady-state allocation
// behavior: once the frame pool is warm, a decode→recycle cycle performs
// zero heap allocations — the bit reader lives on the stack, transform
// scratch is fixed-size arrays, and the output frame is recycled. A
// regression here means a hot-path structure started escaping. The
// stream is walked GOP after GOP, keyframe and P-frames with moving
// content, so that the intra and the inter residual paths are both under
// the pin; and with every frame kept, as an engine keeps them, a frame
// costs exactly its own two allocations (the struct and the planes).
func TestDecodeSteadyStateAllocs(t *testing.T) {
	v := mixedVideo(96, 64, 4, 11)
	enc, err := EncodeVideo(v, Config{QP: 20, GOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDecoder(enc.Config)
	for _, f := range enc.Frames {
		if _, err := ref.Decode(f.Data); err != nil {
			t.Fatal(err)
		}
	}
	if ref.nonZeroMVs == 0 {
		t.Fatal("the stream codes no macroblock with a non-zero vector: the inter residual path is not measured")
	}
	dec, err := NewDecoder(enc.Config)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	decodeNext := func(keep bool) {
		fr, err := dec.Decode(enc.Frames[next%len(enc.Frames)].Data)
		if err != nil {
			t.Fatal(err)
		}
		next++
		if !keep {
			dec.Recycle(fr)
		}
	}
	// Warm up: decode the stream once so the pool holds a frame and the
	// quant tables are built.
	for range enc.Frames {
		decodeNext(false)
	}
	if allocs := testing.AllocsPerRun(200, func() { decodeNext(false) }); allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f times per frame, want 0", allocs)
	}
	gop := func() {
		for range enc.Frames {
			decodeNext(true)
		}
	}
	if allocs, want := testing.AllocsPerRun(25, gop), float64(2*len(enc.Frames)); allocs != want {
		t.Fatalf("decoding a %d-frame GOP with every frame kept allocates %.1f times, want %.0f",
			len(enc.Frames), allocs, want)
	}
}

// TestEncodeSteadyStateAllocs pins the encoder's steady-state allocation
// behavior: after the first frame has sized the bitstream scratch, each
// Encode allocates exactly once — the access unit, copied out at its
// exact final size. Planes, analysis scratch and the bit writer are
// reused or stack-resident.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	v := mixedVideo(96, 64, 4, 11)
	enc, err := NewEncoder(Config{Width: 96, Height: 64, QP: 20, GOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	encode := func() {
		if _, err := enc.Encode(v.Frames[i%len(v.Frames)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	encode() // warm up: the first frame grows wbuf and builds the quant tables
	encode()
	if allocs := testing.AllocsPerRun(200, encode); allocs != 1 {
		t.Fatalf("steady-state encode allocates %.1f times per frame, want 1", allocs)
	}
}

// TestDecodeOverwritesPooledFrame holds Decode to the frame pool's
// contract now that a pooled frame is not painted black first: whatever
// the frame held, every sample of the result comes from the stream.
// Before each access unit the decoder is handed a poisoned frame to
// reuse; odd dimensions and a tile grid put the padded planes' visible
// region and the tile blit's chroma rounding under the check.
func TestDecodeOverwritesPooledFrame(t *testing.T) {
	for _, cfg := range []Config{
		{QP: 20, GOP: 3},
		{QP: 20, GOP: 3, TileRows: 2, TileCols: 2},
	} {
		enc, err := EncodeVideo(mixedVideo(53, 37, 5, 9), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := enc.Decode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(enc.Config)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range enc.Frames {
			stale := dec.newFrame()
			stale.Fill(0xAA, 0xAA, 0xAA)
			dec.Recycle(stale)
			got, err := dec.Decode(f.Data)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFrame(got, want.Frames[i]) {
				t.Fatalf("tiles %dx%d frame %d: decode into a recycled frame diverges", cfg.TileRows, cfg.TileCols, i)
			}
		}
	}
}

// TestNewEncoderFromWarmPoolAllocs pins what an encoder costs once its
// padded size has been released once: the Encoder itself — no plane, no
// analysis scratch. sync.Pool may drop a
// release (a quarter of them under -race), so the pin is the cheapest of
// several build-and-release cycles; a cold build of this size makes 15
// allocations.
func TestNewEncoderFromWarmPoolAllocs(t *testing.T) {
	cfg := Config{Width: 96, Height: 64, QP: 20}
	cycle := func() {
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc.Release()
	}
	cycle()
	best := testing.AllocsPerRun(1, cycle)
	for i := 0; i < 20; i++ {
		best = min(best, testing.AllocsPerRun(1, cycle))
	}
	if best != 1 {
		t.Fatalf("building and releasing an encoder on a warm pool allocates %.0f times, want 1", best)
	}
}
