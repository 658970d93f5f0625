package codec

import "sync"

// Decoder pooling for DecodeRequest's work items. A fresh Decoder per
// (chain × call) is six padded reference/current planes plus a lazily
// grown frame pool, so allocation volume scaled with worker count and
// eventually ate the parallel speedup (codec.decode_par_mpix_per_s in
// bench/ watches it now). Decoders are stateless between uses once
// haveRef is cleared (a keyframe rewrites every sample without reading
// the reference planes), so the planes and frame pools are safely
// recycled across calls.

// decPoolKey identifies interchangeable decoders: everything Decode
// reads from the configuration beyond the bitstream itself. QP, GOP,
// preset, and bitrate live in the bitstream or only matter to encoders.
// Pooled decoders are always untiled: a tile-mode stream decodes each
// tile on the sub-configuration tileConfig derives for it.
type decPoolKey struct{ w, h int }

// decPools maps decPoolKey → *sync.Pool of *Decoder.
var decPools sync.Map

// getDecoder returns a pooled decoder for the configuration, or builds
// one. Pair with putDecoder (safe after a failed decode too: reset
// discards whatever state the failure left behind).
func getDecoder(cfg Config) (*Decoder, error) {
	c := cfg.withDefaults()
	if p, ok := decPools.Load(decPoolKey{c.Width, c.Height}); ok {
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
	p, _ := decPools.LoadOrStore(decPoolKey{d.cfg.Width, d.cfg.Height}, &sync.Pool{})
	p.(*sync.Pool).Put(d)
}
