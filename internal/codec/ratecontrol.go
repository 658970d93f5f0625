package codec

// rateControl adapts the per-frame quantization parameter toward a
// target bitrate. It is a simple proportional controller over a virtual
// buffer: the encoder deposits the frame's actual bits and withdraws the
// per-frame budget; sustained surplus raises QP, sustained deficit
// lowers it. With BitrateKbps == 0 the controller degenerates to
// constant QP.
type rateControl struct {
	constantQP     int
	targetBits     float64 // per frame
	buffer         float64 // bits of surplus (+) or headroom (-)
	qp             int
	rateControlled bool
}

func newRateControl(cfg Config) rateControl {
	rc := rateControl{constantQP: cfg.QP, qp: cfg.QP}
	if cfg.BitrateKbps > 0 {
		rc.rateControlled = true
		rc.targetBits = float64(cfg.BitrateKbps*1000) / float64(cfg.FPS)
		rc.qp = initialQP(rc.targetBits, cfg.Width, cfg.Height)
	}
	return rc
}

// initialQP estimates a starting quantizer from the target bits per
// pixel, so short clips land near the target before the controller has
// feedback to work with. The model assumes structured video spends
// about 0.6 bpp at QP 10 and halves its rate every 6 QP (the step-size
// doubling of the quantizer tables): it solves 0.6·2^((10−qp)/6) = bpp
// for qp, rounded to nearest, as 10 + ⌊(⌊12·log2(0.6/bpp)⌋ + 1)/2⌋. The
// logarithm is counted, not computed: octaves by exact halving and
// doubling, then the semitones the rest reaches — so no transcendental
// function, whose last bit may differ between machines, decides a QP.
func initialQP(targetBitsPerFrame float64, w, h int) int {
	bpp := targetBitsPerFrame / float64(w*h)
	if bpp <= 0 {
		return 28
	}
	r, twelfths := 0.6/bpp, -1
	for ; r >= 2 && twelfths < 12*qpMax; r /= 2 {
		twelfths += 12
	}
	for ; r < 1 && twelfths > -12*qpMax; r *= 2 {
		twelfths -= 12
	}
	for _, s := range semitone {
		if r >= s {
			twelfths++
		}
	}
	return min(max(10+(twelfths+1)>>1, qpMin), qpMax)
}

// semitone[i] is 2^(i/12), rounded to float64.
var semitone = [12]float64{
	1, 1.0594630943592953, 1.122462048309373, 1.189207115002721,
	1.2599210498948732, 1.3348398541700344, 1.4142135623730951, 1.4983070768766815,
	1.5874010519681994, 1.681792830507429, 1.7817974362806785, 1.8877486253633868,
}

// frameQP returns the QP to use for the next frame. Keyframes are coded
// slightly finer since they seed the whole GOP's prediction quality.
func (rc *rateControl) frameQP(isKey bool) int {
	qp := rc.qp
	if !rc.rateControlled {
		qp = rc.constantQP
	}
	if isKey && qp > qpMin+2 {
		qp -= 2
	}
	if qp < qpMin {
		qp = qpMin
	}
	if qp > qpMax {
		qp = qpMax
	}
	return qp
}

// update deposits the frame's actual bit count and adapts QP.
func (rc *rateControl) update(bits int) {
	if !rc.rateControlled {
		return
	}
	rc.buffer += float64(bits) - rc.targetBits
	// Allow roughly half a second of slack before reacting.
	slack := rc.targetBits * 8
	switch {
	case rc.buffer > slack:
		rc.qp += 2
		rc.buffer = slack
	case rc.buffer > slack/4:
		rc.qp++
	case rc.buffer < -slack:
		rc.qp -= 2
		rc.buffer = -slack
	case rc.buffer < -slack/4:
		rc.qp--
	}
	if rc.qp < qpMin {
		rc.qp = qpMin
	}
	if rc.qp > qpMax {
		rc.qp = qpMax
	}
}
