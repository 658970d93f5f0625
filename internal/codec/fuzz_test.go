package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// The fuzzers guard the entropy layer's two contracts:
//
//   - Round-trip: any sequence of symbols written by bitWriter reads
//     back exactly through bitReader, and the stream then reports
//     truncation (never a wrong value, never a panic) when over-read.
//   - Robustness: arbitrary bytes fed to the bit reader or the frame
//     decoder produce a value or an error — never a panic, never an
//     unbounded loop.
//
// The seed corpus doubles as a regression suite: `go test -run Fuzz`
// executes every seed as an ordinary test (verify.sh relies on this).

// FuzzBitioRoundTrip drives bitWriter/bitReader with a symbol script
// decoded from the fuzz input: each 5-byte record is one op (UE, SE, or
// fixed-width) and its value. Whatever was written must read back
// identically, and the exhausted stream must fail cleanly. A second
// writer spells every Exp-Golomb code with the two writes writeUE used to
// make (writeUETwoWrites, transform_test.go): the bytes must match.
// bitLen returns the number of bits written so far.
func (w *bitWriter) bitLen() int { return len(w.buf)*8 + int(w.nCur) }

func FuzzBitioRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 2, 0x12, 0x34, 0x56, 0x78})
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 33, 1, 0x80, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{3, 0xAA, 0x55, 0xAA, 0x55}, 20))
	var probes []byte // the one-write/two-write switch, as UE and as SE, between odd-width fields
	for _, v := range ueProbeValues() {
		probes = binary.BigEndian.AppendUint32(append(probes, 0), v)
		probes = binary.BigEndian.AppendUint32(append(probes, 1), v)
		probes = append(probes, 2, 0, 0, 0, 5)
	}
	f.Add(probes)
	f.Fuzz(func(t *testing.T, script []byte) {
		type op struct {
			kind byte
			v    uint32
			n    uint
		}
		var ops []op
		w, two := &bitWriter{}, &bitWriter{}
		for i := 0; i+5 <= len(script) && len(ops) < 1024; i += 5 {
			o := op{kind: script[i] % 3, v: binary.BigEndian.Uint32(script[i+1 : i+5])}
			switch o.kind {
			case 0:
				w.writeUE(o.v)
				writeUETwoWrites(two, o.v)
			case 1:
				// math.MinInt32 is outside the SE mapping's domain (2k-1 /
				// -2k over uint32 covers every other int32).
				if int32(o.v) == -1<<31 {
					o.v++
				}
				w.writeSE(int32(o.v))
				if v := int32(o.v); v > 0 {
					writeUETwoWrites(two, uint32(2*v-1))
				} else {
					writeUETwoWrites(two, uint32(-2*v))
				}
			case 2:
				o.n = uint(script[i])%32 + 1
				o.v &= 1<<o.n - 1
				w.writeBits(o.v, o.n)
				two.writeBits(o.v, o.n)
			}
			ops = append(ops, o)
		}
		wantBits := w.bitLen()
		data := w.bytes()
		if two.bitLen() != wantBits || !bytes.Equal(two.bytes(), data) {
			t.Fatalf("one-write Exp-Golomb codes give %d bits %x, two writes %d bits %x", wantBits, data, two.bitLen(), two.bytes())
		}
		if got := (len(data)*8 - wantBits); got < 0 || got > 7 {
			t.Fatalf("bitLen %d inconsistent with %d output bytes", wantBits, len(data))
		}
		r := bitReader{buf: data}
		for i, o := range ops {
			switch o.kind {
			case 0:
				got, err := r.readUE()
				if err != nil || got != o.v {
					t.Fatalf("op %d: readUE = %d, %v; want %d", i, got, err, o.v)
				}
			case 1:
				got, err := r.readSE()
				if err != nil || got != int32(o.v) {
					t.Fatalf("op %d: readSE = %d, %v; want %d", i, got, err, int32(o.v))
				}
			case 2:
				got, err := r.readBits(o.n)
				if err != nil || got != o.v {
					t.Fatalf("op %d: readBits(%d) = %d, %v; want %d", i, o.n, got, err, o.v)
				}
			}
		}
		// Over-reading the padded remainder must fail with a clean error
		// before consuming 33 bits' worth of symbols.
		for i := 0; i < 40; i++ {
			if _, err := r.readUE(); err != nil {
				break
			}
		}
	})
}

// bitReaderRef is the per-bit reader bitReader stands in for: it takes
// one bit at a time, counts an Exp-Golomb code's zeros one by one, and
// fails at the first bit the stream does not hold. pos counts the bits
// consumed.
type bitReaderRef struct {
	buf []byte
	pos int
}

func (r *bitReaderRef) bit() (uint32, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, errTruncated
	}
	b := uint32(r.buf[r.pos/8]>>(7-r.pos%8)) & 1
	r.pos++
	return b, nil
}

func (r *bitReaderRef) readBits(n uint) (uint32, error) {
	var v uint32
	for ; n > 0; n-- {
		b, err := r.bit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// readUE fails on the 33rd zero of a prefix, and on a 32-zero code whose
// value, 2³² + suffix − 1, does not fit 32 bits.
func (r *bitReaderRef) readUE() (uint32, error) {
	zeros := uint(0)
	for {
		b, err := r.bit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		if zeros++; zeros > 32 {
			return 0, errInvalidUE
		}
	}
	suffix, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	v := uint64(1)<<zeros + uint64(suffix) - 1
	if v > math.MaxUint32 {
		return 0, errInvalidUE
	}
	return uint32(v), nil
}

func (r *bitReaderRef) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}

func (r *bitReaderRef) readPair() (uint32, int32, error) {
	run, err := r.readUE()
	if err != nil {
		return 0, 0, err
	}
	lvl, err := r.readSE()
	return run, lvl, err
}

// symbolReader is what bitReader and bitReaderRef share.
type symbolReader interface {
	readUE() (uint32, error)
	readSE() (int32, error)
	readBits(n uint) (uint32, error)
	readPair() (uint32, int32, error)
}

// readOp runs op on r: op%4 picks readUE, readSE, readBits of op>>2 % 33
// bits or readPair.
func readOp(r symbolReader, op byte) (v [2]int64, err error) {
	switch op % 4 {
	case 0:
		u, err := r.readUE()
		return [2]int64{int64(u)}, err
	case 1:
		s, err := r.readSE()
		return [2]int64{int64(s)}, err
	case 2:
		b, err := r.readBits(uint(op>>2) % 33)
		return [2]int64{int64(b)}, err
	}
	run, lvl, err := r.readPair()
	return [2]int64{int64(run), int64(lvl)}, err
}

// FuzzBitReaderRaw feeds arbitrary bytes to bitReader and to the per-bit
// bitReaderRef and reads both with one op script, each byte an op: a
// readUE, a readSE, a readBits of 0…32 bits or a readPair (a readUE and a
// readSE). At every step the two must return the same value or the same
// error, and after a read that succeeds have consumed the same number of
// bits. The first error ends the script: a decoder abandons a stream that
// fails, so a reader's position after an error is no part of its
// contract. The stream drains in a bounded number of steps. An empty
// script reads UE, SE and bits in turn.
func FuzzBitReaderRaw(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x00}, []byte{})
	f.Add([]byte{0xFF, 0x00, 0xAB}, []byte{})
	f.Add(bytes.Repeat([]byte{0x00}, 16), []byte{})
	f.Add(bytes.Repeat([]byte{0x80}, 16), []byte{})
	// 32 zeros, the marker, then the 32-bit suffix 5: an overlong code
	// for the value 4, and the one 32-zero code that fits, 2³²−1.
	f.Add([]byte{0, 0, 0, 0, 0x80, 0, 0, 0x02, 0x80}, []byte{0})
	f.Add([]byte{0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0xFF}, []byte{0, 3})
	// Pairs at and around the table's reach, across word refills.
	var w bitWriter
	for i := uint32(0); i < 40; i++ {
		w.writeUE(i % 33)
		w.writeSE(int32(i%21) - 10)
	}
	f.Add(w.bytes(), []byte{3})
	f.Add(bytes.Repeat([]byte{0x5A, 0xC3, 0x01}, 12), []byte{3, 2<<2 | 2, 1, 0, 32<<2 | 2, 3, 3})
	// The stream ends inside a pair whose window, padded with zeros, is
	// the table's pair (0, 1): the pair is truncated.
	f.Add([]byte{0x05}, []byte{5<<2 | 2, 3})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		fast, ref := &bitReader{buf: data}, &bitReaderRef{buf: data}
		// A step consumes at least one bit or fails, but for a 0-bit
		// read, so the loop bound is a small multiple of the bit length.
		for i := 0; i <= 2*(len(data)*8+1); i++ {
			op := byte(i % 3)
			if i%3 == 2 {
				op |= byte(i%17+1) << 2
			}
			if len(script) > 0 {
				op = script[i%len(script)]
			}
			got, gotErr := readOp(fast, op)
			want, wantErr := readOp(ref, op)
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("step %d (op %#x): bitReader says %q, the per-bit reader %q", i, op, errString(gotErr), errString(wantErr))
			}
			if wantErr != nil {
				return
			}
			if got != want || readerAt(fast) != ref.pos {
				t.Fatalf("step %d (op %#x): bitReader read %v to bit %d, the per-bit reader %v to bit %d", i, op, got, readerAt(fast), want, ref.pos)
			}
		}
	})
}

// TestPairTableMatchesReaders checks pairTable against the readers, both
// ways. Every pairBits-bit window, read as a stream of its own by readUE
// then readSE, must give its entry: the pair and its width when both
// codes end within the window, else zero. Every pair whose codes fit the
// window, written by the writer and looked up, must be there.
func TestPairTableMatchesReaders(t *testing.T) {
	for win := uint32(0); win < 1<<pairBits; win++ {
		var w bitWriter
		w.writeBits(win, pairBits)
		r := bitReader{buf: w.bytes()}
		var want uint32
		if run, err := r.readUE(); err == nil {
			if lvl, err := r.readSE(); err == nil && readerAt(&r) <= pairBits {
				want = uint32(uint16(int16(lvl)))<<16 | run<<8 | uint32(readerAt(&r))
			}
		}
		if got := pairTable[win]; got != want {
			t.Fatalf("window %0*b: entry %#x, the readers give %#x", pairBits, win, got, want)
		}
	}
	pairs := 0
	for run := uint32(0); run < 64; run++ {
		for lvl := int32(-64); lvl <= 64; lvl++ {
			_, rw := ueCode(run)
			_, lw := seCode(lvl)
			if rw+lw > pairBits {
				continue
			}
			pairs++
			var w bitWriter
			w.writeUE(run)
			w.writeSE(lvl)
			w.writeBits(0x7FF, pairBits) // whatever follows the pair
			e := pairTable[binary.BigEndian.Uint16(w.bytes())>>(16-pairBits)]
			if e&0xFF != uint32(rw+lw) || e>>8&0xFF != run || int32(e)>>16 != lvl {
				t.Fatalf("pair (%d, %d), %d bits: entry %#x", run, lvl, rw+lw, e)
			}
		}
	}
	if pairs < 100 {
		t.Fatalf("only %d pairs fit %d bits", pairs, pairBits)
	}
}

// fuzzDecoderCfg is the fixed configuration FuzzDecodeFrame decodes
// against: small enough to keep per-input cost low, several macroblocks
// per row so the MV predictor chain is exercised.
func fuzzDecoderCfg() Config { return Config{Width: 48, Height: 48, QP: 20, GOP: 4} }

// FuzzDecodeFrame throws arbitrary access units at the decoder, both as
// the first frame and after a valid keyframe (so the P-frame syntax is
// reachable). Corrupted input must yield an error or a frame — never a
// panic, out-of-range access, or hang — and the same error or frame as
// the reference decoder of transform_test.go.
func FuzzDecodeFrame(f *testing.F) {
	cfg := fuzzDecoderCfg()
	v := mixedVideo(cfg.Width, cfg.Height, 3, 17)
	enc, err := EncodeVideo(v, cfg)
	if err != nil {
		f.Fatal(err)
	}
	key := enc.Frames[0].Data
	for _, fr := range enc.Frames {
		f.Add(fr.Data) // valid AUs
		if len(fr.Data) > 2 {
			bad := append([]byte(nil), fr.Data...)
			bad[len(bad)/2] ^= 0x5A
			f.Add(bad)              // bit-flipped
			f.Add(bad[:len(bad)/2]) // truncated
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x40})                   // P-frame header, no ref
	f.Add([]byte{0x00, 0x00})             // keyframe header, truncated body
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // dense ones
	f.Add(bytes.Repeat([]byte{0x00}, 64)) // long zero runs (Exp-Golomb limit)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference decoder (decodeBlock, then dequantizeBlock
		// in full) is the second oracle: same error text, same frame.
		agree := func(when string, dec *Decoder, ref *refDecoder) {
			got, gotErr := dec.Decode(data)
			want, wantErr := ref.Decode(data)
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("%s: decoder says %q, reference parser %q", when, errString(gotErr), errString(wantErr))
			}
			if gotErr == nil && !sameFrame(got, want) {
				t.Fatalf("%s: decoded frame diverges from the reference decode", when)
			}
		}
		// Fresh decoder: input is the first AU.
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		agree("first unit", dec, newRefDecoder(cfg)) // error or frame; must not panic

		// Warm decoder: input arrives after a valid keyframe, so P-frame
		// parsing and motion compensation run against real reference state.
		dec2, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref2 := newRefDecoder(cfg)
		if _, err := dec2.Decode(key); err != nil {
			t.Fatalf("seed keyframe rejected: %v", err)
		}
		if _, err := ref2.Decode(key); err != nil {
			t.Fatalf("reference decoder rejected the seed keyframe: %v", err)
		}
		agree("after a keyframe", dec2, ref2)
	})
}
