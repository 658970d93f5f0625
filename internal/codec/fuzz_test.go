package codec

import (
	"bytes"
	"encoding/binary"
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

// FuzzBitReaderRaw feeds arbitrary bytes straight into the reader: every
// symbol read returns a value or an error, and the stream drains in a
// bounded number of steps.
func FuzzBitReaderRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0x00, 0xAB})
	f.Add(bytes.Repeat([]byte{0x00}, 16))
	f.Add(bytes.Repeat([]byte{0x80}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bitReader{buf: data}
		// Each iteration consumes at least one bit or errors, so this is
		// bounded by the bit length.
		for i := 0; i <= len(data)*8+1; i++ {
			switch i % 3 {
			case 0:
				if _, err := r.readUE(); err != nil {
					return
				}
			case 1:
				if _, err := r.readSE(); err != nil {
					return
				}
			case 2:
				if _, err := r.readBits(uint(i)%17 + 1); err != nil {
					return
				}
			}
		}
	})
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
