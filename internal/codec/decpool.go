package codec

import "sync"

// Decoder pooling for the parallel decode paths. Chain-parallel decode
// used to construct a fresh Decoder per (chain × call) — six padded
// reference/current planes plus a lazily grown frame pool each — so
// allocation volume scaled with worker count and eventually ate the
// parallel speedup (a workers=8 regression of BenchmarkDecodeParallel;
// codec.decode_par_mpix_per_s in bench/ watches it now).
// Decoders are stateless between uses once haveRef is cleared (a
// keyframe rewrites every sample without reading the reference planes),
// so the planes and frame pools are safely recycled across calls.

// decPoolKey identifies interchangeable decoders: everything Decode
// reads from the configuration beyond the bitstream itself. QP, GOP,
// preset, and bitrate live in the bitstream or only matter to encoders.
type decPoolKey struct {
	w, h       int
	rows, cols int
}

// decPools maps decPoolKey → *sync.Pool of *Decoder.
var decPools sync.Map

// getDecoder returns a pooled decoder for the configuration, or builds
// one. Pair with putDecoder when the decode completes without error.
func getDecoder(cfg Config) (*Decoder, error) {
	c := cfg.withDefaults()
	rows, cols := c.tileGrid()
	key := decPoolKey{c.Width, c.Height, rows, cols}
	if p, ok := decPools.Load(key); ok {
		if d, _ := p.(*sync.Pool).Get().(*Decoder); d != nil {
			d.reset()
			return d, nil
		}
	}
	return NewDecoder(c)
}

// putDecoder recycles a decoder obtained from getDecoder.
func putDecoder(d *Decoder) {
	if d == nil {
		return
	}
	rows, cols := d.cfg.tileGrid()
	key := decPoolKey{d.cfg.Width, d.cfg.Height, rows, cols}
	p, _ := decPools.LoadOrStore(key, &sync.Pool{})
	p.(*sync.Pool).Put(d)
}
