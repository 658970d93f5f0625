package codec

import "sync"

// Decoder pooling for DecodeRequest's work items and the engines'
// stream decoders. A fresh Decoder per (chain × call) or per query
// instance is six padded reference/current planes, so allocation volume
// scaled with worker count and eventually ate the parallel speedup
// (codec.decode_par_mpix_per_s in bench/ watches it now). Decoders are
// stateless between uses once haveRef is cleared (a keyframe rewrites
// every sample without reading the reference planes), so the planes are
// safely recycled across calls. Their output frames come from video's
// frame-pool registry, not from the decoder.

// decPoolKey identifies interchangeable decoders: everything Decode
// reads from the configuration beyond the bitstream itself. QP, GOP,
// preset, and bitrate live in the bitstream or only matter to encoders.
// The tile grid fixes a tiled decoder's sub-decoders.
type decPoolKey struct{ w, h, rows, cols int }

func poolKey(c *Config) decPoolKey {
	rows, cols := c.tileGrid()
	return decPoolKey{c.Width, c.Height, rows, cols}
}

// decPools maps decPoolKey → *sync.Pool of *Decoder.
var decPools sync.Map

// GetDecoder returns a pooled decoder for the configuration, or builds
// one with NewDecoder. Pair with PutDecoder (safe after a failed decode
// too: reset discards whatever state the failure left behind).
func GetDecoder(cfg Config) (*Decoder, error) {
	c := cfg.withDefaults()
	if p, ok := decPools.Load(poolKey(&c)); ok {
		if d, _ := p.(*sync.Pool).Get().(*Decoder); d != nil {
			d.reset()
			return d, nil
		}
	}
	return NewDecoder(c)
}

// PutDecoder recycles a decoder obtained from GetDecoder. The caller
// must not use it afterwards; the frames it decoded stay the caller's.
func PutDecoder(d *Decoder) {
	if d == nil {
		return
	}
	p, _ := decPools.LoadOrStore(poolKey(&d.cfg), &sync.Pool{})
	p.(*sync.Pool).Put(d)
}
