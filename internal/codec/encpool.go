package codec

import "sync"

// Encoder state pooling, in the idiom of decpool.go. A fresh Encoder per
// result video, per generated camera and per tile was six padded planes
// plus the per-macroblock analysis scratch (1.6 KB a macroblock) — more
// bytes than the access units it went on to produce. The state carries
// nothing from one stream to the next, so it is recycled as it is, not
// cleared: the first frame of a stream is a keyframe, which loads every
// sample of the current planes, reconstructs every block in place and
// never reads the reference planes; a P-frame reads the reference planes
// only after that rotation and loads the current ones first; every
// macroblock's mbCode is rewritten by the analysis pass of the frame that
// emits it, and a block's levels are read at its mask's positions only;
// the bitstream scratch is truncated before use.

// encState is what an Encoder borrows from the pool.
type encState struct {
	// Reconstructed reference planes (what the decoder will see) and the
	// planes of the frame being coded.
	refY, refU, refV *plane
	curY, curU, curV *plane
	// mbs is the per-frame analysis scratch (one entry per macroblock),
	// reused across frames to avoid reallocation.
	mbs []mbCode
	// wbuf is the entropy pass's bitstream scratch, reused across frames;
	// each access unit is copied out at its exact final size.
	wbuf []byte
}

// encPoolKey identifies interchangeable encoder state: the padded luma
// dimensions. The chroma planes of every visible size that pads to them
// pad to half of them, and nothing else about a configuration shapes the
// state.
type encPoolKey struct{ w, h int }

// encPools maps encPoolKey → *sync.Pool of *encState.
var encPools sync.Map

// getEncState returns pooled state for w×h frames, or allocates it.
func getEncState(w, h int) *encState {
	pw, ph := (w+15)&^15, (h+15)&^15
	if p, ok := encPools.Load(encPoolKey{pw, ph}); ok {
		if s, _ := p.(*sync.Pool).Get().(*encState); s != nil {
			return s
		}
	}
	return newEncState(pw, ph)
}

// newEncState allocates the state for padded luma dimensions pw×ph.
func newEncState(pw, ph int) *encState {
	return &encState{
		refY: newPlane(pw, ph, 16), refU: newPlane(pw/2, ph/2, 8), refV: newPlane(pw/2, ph/2, 8),
		curY: newPlane(pw, ph, 16), curU: newPlane(pw/2, ph/2, 8), curV: newPlane(pw/2, ph/2, 8),
		mbs: make([]mbCode, (pw/16)*(ph/16)),
	}
}

// putEncState recycles state obtained from getEncState.
func putEncState(s *encState) {
	key := encPoolKey{s.curY.w, s.curY.h}
	p, ok := encPools.Load(key)
	if !ok {
		p, _ = encPools.LoadOrStore(key, &sync.Pool{})
	}
	p.(*sync.Pool).Put(s)
}
