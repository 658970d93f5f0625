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
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Entropy I/O runs word-at-a-time: both the reader and the writer move
// bits through a 64-bit accumulator, and both move memory a word at a
// time — the reader loads 8 bytes per refill, the writer stores 4 per
// flush — so the per-symbol cost is a couple of shifts, not a
// bounds-checked loop iteration per bit or per byte. The bit-level format
// is unchanged: output bytes and errors are byte-identical to the
// historical per-bit implementation (the golden corpus under testdata/
// pins this; bitReaderRef in the tests is the per-bit reader).

// bitWriter accumulates bits MSB-first into a byte slice. Bits gather in
// the low end of cur (at most 31 carried between calls) and flush to buf
// 32 bits at a time.
type bitWriter struct {
	buf  []byte
	cur  uint64
	nCur uint // bits currently held in cur (< 32 between calls)
}

// writeBits writes the low n bits of v, MSB first. n must be ≤ 32.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.cur = w.cur<<n | uint64(v)&(1<<n-1)
	w.nCur += n
	if w.nCur >= 32 {
		w.nCur -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.cur>>w.nCur))
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

// ueCode is v's unsigned Exp-Golomb code: n leading zeros followed by the
// n+1 significant bits of v+1, where n = bitlen(v+1)-1. The code is the
// zero high bits of v+1 taken 2n+1 wide, so it is returned as v+1 and
// that width: at most 32 zeros plus 33 value bits.
func ueCode(v uint32) (code uint64, width uint) {
	x := uint64(v) + 1
	return x, 2*uint(bits.Len64(x)) - 1
}

// seCode is v's signed Exp-Golomb code (H.264 mapping: positive k →
// 2k-1, non-positive k → -2k), as ueCode returns it.
func seCode(v int32) (code uint64, width uint) {
	if v > 0 {
		return ueCode(uint32(2*v - 1))
	}
	return ueCode(uint32(-2 * v))
}

// writeCode writes a code of ueCode's form. One of up to 32 bits goes out
// in one write; a longer one is its zero prefix, then its value bits.
func (w *bitWriter) writeCode(code uint64, width uint) {
	if width <= 32 {
		w.writeBits(uint32(code), width)
		return
	}
	w.writeBits(0, width/2)
	w.writeBits64(code, width/2+1)
}

// writeUE writes v using unsigned Exp-Golomb coding (ueCode).
func (w *bitWriter) writeUE(v uint32) { w.writeCode(ueCode(v)) }

// writeSE writes v using signed Exp-Golomb coding (seCode).
func (w *bitWriter) writeSE(v int32) { w.writeCode(seCode(v)) }

// bytes flushes the held bits, the last byte zero-padded, and returns
// the buffer.
func (w *bitWriter) bytes() []byte {
	for ; w.nCur >= 8; w.nCur -= 8 {
		w.buf = append(w.buf, byte(w.cur>>(w.nCur-8)))
	}
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nCur)))
	}
	w.cur, w.nCur = 0, 0
	return w.buf
}

// errTruncated reports a bitstream that ended mid-symbol.
var errTruncated = errors.New("codec: truncated bitstream")

// errInvalidUE reports an Exp-Golomb code whose zero prefix exceeds the
// 32-bit value range (32 leading zeros at most).
var errInvalidUE = fmt.Errorf("codec: invalid Exp-Golomb code (leading zeros > 32)")

// bitReader consumes bits MSB-first from a byte slice through a 64-bit
// accumulator: the top nAcc bits of acc are the next unread bits of the
// stream (bit 63 is the next bit). The bits below them are zero or the
// stream's bits that follow, loaded early by a word refill; either way no
// read depends on them. Truncation is checked at refill granularity — a
// read fails with errTruncated exactly when the stream holds fewer bits
// than the symbol needs, matching the per-bit reader on every input.
type bitReader struct {
	buf  []byte
	pos  int    // next byte of buf not yet counted in nAcc
	acc  uint64 // unread bits, MSB-aligned
	nAcc uint   // number of valid bits in acc
}

// refill tops the accumulator up to at least 56 valid bits, or to the
// end of the stream, whichever comes first. With 8 bytes left it loads
// them as one word, keeps the whole bytes that fit, and leaves the rest
// of the word below them to be counted by the next refill; the tail of
// the stream goes in a byte at a time.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.nAcc
		r.pos += int(63-r.nAcc) >> 3
		r.nAcc |= 56
		return
	}
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
	if lz == 32 && rest != 0 {
		// 2³² + rest − 1 does not fit 32 bits; no writer produces it.
		return 0, errInvalidUE
	}
	return (1<<lz | rest) - 1, nil
}

// readSE reads a signed Exp-Golomb code (inverse of writeSE's mapping).
func (r *bitReader) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	return seValue(u), nil
}

// seValue is the signed value of the unsigned Exp-Golomb value u.
func seValue(u uint32) int32 {
	if u&1 == 1 {
		return int32(u/2) + 1
	}
	return -int32(u / 2)
}

// pairBits is the window pairTable decodes a (run, level) pair from.
const pairBits = 11

// pairTable maps every pairBits-bit window to the run-level pair whose
// codes, readUE's then readSE's, it starts with: the pair's code width in
// the low byte, the run in the next, the level in the top 16 bits (as
// int16). An entry is zero when the two codes do not fit the window.
// Runs and levels are short in practice, so most pairs of a stream hit
// the table (DESIGN.md §5.9 item 1).
var pairTable = func() (t [1 << pairBits]uint32) {
	for run := uint32(0); ; run++ {
		rc, rw := ueCode(run)
		if rw+1 > pairBits {
			return t
		}
		for u := uint32(0); ; u++ {
			lc, lw := ueCode(u)
			w := rw + lw
			if w > pairBits {
				break
			}
			lvl := uint32(uint16(int16(seValue(u))))
			// Every window that starts with the pair's code.
			first := (rc<<lw | lc) << (pairBits - w)
			for i := range uint64(1) << (pairBits - w) {
				t[first+i] = lvl<<16 | run<<8 | uint32(w)
			}
		}
	}
}()

// readPair reads a run-level pair, a readUE then a readSE. A pair whose
// codes lie within the next pairBits bits of the stream takes one
// pairTable lookup; every other pair — a longer code, an invalid or a
// truncated one — takes the two reads, so values, errors and the bits
// consumed are the two reads' on every input.
func (r *bitReader) readPair() (run uint32, lvl int32, err error) {
	if r.nAcc < pairBits {
		r.refill()
	}
	if e := pairTable[r.acc>>(64-pairBits)]; e != 0 && uint(e&0xFF) <= r.nAcc {
		r.acc <<= e & 0xFF
		r.nAcc -= uint(e & 0xFF)
		return e >> 8 & 0xFF, int32(e) >> 16, nil
	}
	if run, err = r.readUE(); err != nil {
		return 0, 0, err
	}
	lvl, err = r.readSE()
	return run, lvl, err
}
