package codec

import (
	"testing"
)

// TestDecodeSteadyStateAllocs pins the decoder's steady-state allocation
// behavior: once the frame pool is warm, a decode→recycle cycle performs
// zero heap allocations — the bit reader lives on the stack, transform
// scratch is fixed-size arrays, and the output frame is recycled. A
// regression here means a hot-path structure started escaping.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	v := mixedVideo(96, 64, 4, 11)
	enc, err := EncodeVideo(v, Config{QP: 20, GOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(enc.Config)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: decode the stream once so the pool holds a frame and the
	// quant tables are built.
	for _, f := range enc.Frames {
		fr, err := dec.Decode(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		dec.Recycle(fr)
	}
	au := enc.Frames[0] // keyframe: decodable repeatedly on one decoder
	allocs := testing.AllocsPerRun(200, func() {
		fr, err := dec.Decode(au.Data)
		if err != nil {
			t.Fatal(err)
		}
		dec.Recycle(fr)
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f times per frame, want 0", allocs)
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
