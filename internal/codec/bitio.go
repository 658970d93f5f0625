// Package codec implements the block-based video codec that stands in
// for H.264/HEVC in this reproduction of Visual Road. It provides
// I/P-frame encoding with 16×16-macroblock motion compensation, 8×8
// integer transform coding, scalar quantization with dead-zone, zigzag
// run-level entropy coding using Exp-Golomb codes, and a simple
// GOP-level bitrate controller.
//
// The codec is a real (lossy) compressor: it exploits the inter-frame
// and spatial redundancy of structured video, and — like the codecs the
// paper builds on — gains nothing on random noise. Two presets are
// exposed, named after the codecs Visual Road supports: PresetH264 and
// PresetHEVC (the latter searches a wider motion range and quantizes
// more finely, yielding better rate/distortion at higher encode cost).
package codec

import (
	"errors"
	"fmt"
	"math/bits"
)

// Entropy I/O runs word-at-a-time: both the reader and the writer move
// bits through a 64-bit accumulator so the per-symbol cost is a couple
// of shifts, not a bounds-checked loop iteration per bit. The bit-level
// format is unchanged — output bytes and truncation errors are
// byte-identical to the historical per-bit implementation (the golden
// corpus under testdata/ pins this).

// bitWriter accumulates bits MSB-first into a byte slice. Bits gather
// in the low end of cur (at most 7 carried between calls) and flush to
// buf a whole byte at a time.
type bitWriter struct {
	buf  []byte
	cur  uint64
	nCur uint // bits currently held in cur (< 8 between calls)
}

// writeBits writes the low n bits of v, MSB first. n must be ≤ 32.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.cur = w.cur<<n | uint64(v)&(1<<n-1)
	w.nCur += n
	for w.nCur >= 8 {
		w.nCur -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nCur))
	}
}

// writeBits64 writes the low n bits of v, MSB first, for n ≤ 64.
func (w *bitWriter) writeBits64(v uint64, n uint) {
	if n > 32 {
		w.writeBits(uint32(v>>32), n-32)
		n = 32
	}
	w.writeBits(uint32(v), n)
}

// writeUE writes v using unsigned Exp-Golomb coding: n leading zeros
// followed by the n+1 significant bits of v+1, where n = bitlen(v+1)-1.
// The whole code is at most 32 zeros plus 33 value bits. Up to n = 15 it
// is at most 31 bits and goes out in one write: the prefix is the zero
// high bits of v+1 taken 2n+1 wide.
func (w *bitWriter) writeUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x)) - 1
	if n < 16 {
		w.writeBits(uint32(x), 2*n+1)
		return
	}
	w.writeBits(0, n)
	w.writeBits64(x, n+1)
}

// writeSE writes v using signed Exp-Golomb coding (H.264 mapping:
// positive k → 2k-1, non-positive k → -2k).
func (w *bitWriter) writeSE(v int32) {
	if v > 0 {
		w.writeUE(uint32(2*v - 1))
	} else {
		w.writeUE(uint32(-2 * v))
	}
}

// bytes flushes any partial byte (zero-padded) and returns the buffer.
func (w *bitWriter) bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nCur)))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// bitLen returns the number of bits written so far.
func (w *bitWriter) bitLen() int { return len(w.buf)*8 + int(w.nCur) }

// errTruncated reports a bitstream that ended mid-symbol.
var errTruncated = errors.New("codec: truncated bitstream")

// errInvalidUE reports an Exp-Golomb code whose zero prefix exceeds the
// 32-bit value range (32 leading zeros at most).
var errInvalidUE = fmt.Errorf("codec: invalid Exp-Golomb code (leading zeros > 32)")

// bitReader consumes bits MSB-first from a byte slice through a 64-bit
// accumulator: acc holds the next nAcc unread bits left-aligned (bit 63
// is the next bit of the stream; everything below the top nAcc bits is
// zero), refilled a byte at a time from buf. Truncation is checked at
// refill granularity — a read fails with errTruncated exactly when the
// stream holds fewer bits than the symbol needs, matching the per-bit
// reader's behavior on every input.
type bitReader struct {
	buf  []byte
	pos  int    // next byte of buf to load into acc
	acc  uint64 // unread bits, MSB-aligned
	nAcc uint   // number of valid bits in acc
}

// refill tops the accumulator up to at least 57 valid bits, or to the
// end of the stream, whichever comes first.
func (r *bitReader) refill() {
	for r.nAcc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.nAcc)
		r.pos++
		r.nAcc += 8
	}
}

// readBits returns the next n bits MSB-first. n must be ≤ 32.
func (r *bitReader) readBits(n uint) (uint32, error) {
	if r.nAcc < n {
		r.refill()
		if r.nAcc < n {
			return 0, errTruncated
		}
	}
	if n == 0 {
		return 0, nil
	}
	v := uint32(r.acc >> (64 - n))
	r.acc <<= n
	r.nAcc -= n
	return v, nil
}

// readUE reads an unsigned Exp-Golomb code: the zero prefix is counted
// with a single LeadingZeros64 over the accumulator instead of a loop.
func (r *bitReader) readUE() (uint32, error) {
	if r.nAcc < 33 {
		r.refill()
	}
	lz := uint(bits.LeadingZeros64(r.acc))
	if lz >= r.nAcc {
		// Every remaining bit is zero: the per-bit reader would consume
		// them all and then either trip the 32-zero validity bound or run
		// off the end of the stream.
		if r.nAcc > 32 {
			return 0, errInvalidUE
		}
		return 0, errTruncated
	}
	if lz > 32 {
		return 0, errInvalidUE
	}
	// Code layout: lz zeros, a marker one, then lz value bits.
	r.acc <<= lz + 1
	r.nAcc -= lz + 1
	if lz == 0 {
		return 0, nil
	}
	rest, err := r.readBits(lz)
	if err != nil {
		return 0, err
	}
	return (1<<lz | rest) - 1, nil
}

// readSE reads a signed Exp-Golomb code (inverse of writeSE's mapping).
func (r *bitReader) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	if u&1 == 1 {
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}
