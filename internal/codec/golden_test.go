package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/video"
)

// The golden corpus pins the codec's exact input/output behavior: for a
// deterministic source video and configuration, the encoded bytes and
// the decoded frames must stay byte-identical across codec changes
// (entropy I/O rewrites, transform refactors, decode parallelism). The
// fixtures under testdata/ were generated from the float64 reference
// formulation; any fast path must reproduce them bit for bit.
//
// Regenerate (only when the codec format intentionally changes) with:
//
//	go test ./internal/codec -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite golden codec fixtures")

// goldenCase is one corpus entry: a seeded source and a configuration.
type goldenCase struct {
	name string
	cfg  Config
	src  func() *video.Video
}

func goldenCases() []goldenCase {
	return []goldenCase{
		// Smooth, motion-dominated content: mostly DC/skip macroblocks.
		{name: "gradient_h264_qp24", cfg: Config{QP: 24, GOP: 5},
			src: func() *video.Video { return gradientVideo(96, 72, 18) }},
		// Odd dimensions exercise plane padding; the HEVC preset shifts QP.
		{name: "odd_hevc_qp12", cfg: Config{QP: 12, GOP: 4, Preset: PresetHEVC},
			src: func() *video.Video { return gradientVideo(53, 37, 10) }},
		// Mixed content with a moving noise patch: dense AC blocks, real
		// motion, and rate-control QP churn across the full stream.
		{name: "mixed_rc", cfg: Config{BitrateKbps: 150, GOP: 6, FPS: 30},
			src: func() *video.Video { return mixedVideo(96, 64, 16, 7) }},
		// Quantizer extremes: near-lossless and coarse.
		{name: "gradient_qp2", cfg: Config{QP: 2, GOP: 5},
			src: func() *video.Video { return mixedVideo(64, 48, 8, 3) }},
		{name: "gradient_qp44", cfg: Config{QP: 44, GOP: 5},
			src: func() *video.Video { return mixedVideo(64, 48, 8, 5) }},
	}
}

// mixedVideo is a gradient background with a translating patch of seeded
// noise — structured enough to compress, busy enough to produce dense
// AC coefficients and nontrivial motion vectors.
func mixedVideo(w, h, n int, seed int64) *video.Video {
	rng := rand.New(rand.NewSource(seed))
	noise := make([]byte, 32*32)
	rng.Read(noise)
	v := video.NewVideo(30)
	for i := 0; i < n; i++ {
		f := video.NewFrame(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.SetY(x, y, byte((x*3+y*2+i*5)%200+20))
			}
		}
		// Patch moves one pixel right and down per frame.
		px, py := (i*1)%(w-32), (i*1)%(h-32)
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				f.SetY(px+x, py+y, noise[y*32+x])
			}
		}
		for y := 0; y < f.ChromaH(); y++ {
			for x := 0; x < f.ChromaW(); x++ {
				f.U[y*f.ChromaW()+x] = byte(90 + (x*2+i)%70)
				f.V[y*f.ChromaW()+x] = byte(120 + (y+i*2)%60)
			}
		}
		v.Append(f)
	}
	return v
}

// marshalStream serializes an encoded stream: per frame a keyframe flag
// byte and a big-endian length prefix, then the access unit.
func marshalStream(e *Encoded) []byte {
	var buf bytes.Buffer
	for _, f := range e.Frames {
		k := byte(0)
		if f.Keyframe {
			k = 1
		}
		buf.WriteByte(k)
		var ln [4]byte
		binary.BigEndian.PutUint32(ln[:], uint32(len(f.Data)))
		buf.Write(ln[:])
		buf.Write(f.Data)
	}
	return buf.Bytes()
}

// unmarshalStream inverts marshalStream.
func unmarshalStream(data []byte, cfg Config) (*Encoded, error) {
	e := &Encoded{Config: cfg}
	for len(data) > 0 {
		if len(data) < 5 {
			return nil, fmt.Errorf("golden stream: %d trailing bytes", len(data))
		}
		key := data[0] == 1
		n := binary.BigEndian.Uint32(data[1:5])
		if uint32(len(data)-5) < n {
			return nil, fmt.Errorf("golden stream: truncated access unit")
		}
		e.Frames = append(e.Frames, EncodedFrame{Data: data[5 : 5+n], Keyframe: key})
		data = data[5+n:]
	}
	return e, nil
}

// decodedDigest hashes every decoded sample: per frame Y, U, V planes in
// order. Two decodes agree on the digest iff they are byte-identical.
func decodedDigest(v *video.Video) string {
	h := sha256.New()
	for _, f := range v.Frames {
		h.Write(f.Y)
		h.Write(f.U)
		h.Write(f.V)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenPaths(name string) (stream, digest string) {
	return filepath.Join("testdata", "golden_"+name+".bin"),
		filepath.Join("testdata", "golden_"+name+".sha256")
}

// TestGoldenBitstreams is the exactness gate for the codec hot path:
// encoding the corpus must reproduce the checked-in bytes exactly, and
// decoding the checked-in bytes must reproduce the recorded frame
// digest exactly.
func TestGoldenBitstreams(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			streamPath, digestPath := goldenPaths(gc.name)
			enc, err := EncodeVideo(gc.src(), gc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := marshalStream(enc)
			dec, err := enc.Decode()
			if err != nil {
				t.Fatal(err)
			}
			digest := decodedDigest(dec)

			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(streamPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(digestPath, []byte(digest+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s (%d bytes)", streamPath, len(got))
				return
			}

			want, err := os.ReadFile(streamPath)
			if err != nil {
				t.Fatalf("missing fixture (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoded bytes diverge from golden fixture (%d vs %d bytes)", len(got), len(want))
			}
			wantDigest, err := os.ReadFile(digestPath)
			if err != nil {
				t.Fatalf("missing digest fixture (run with -update): %v", err)
			}
			if digest != string(bytes.TrimSpace(wantDigest)) {
				t.Fatalf("decoded frames diverge from golden digest:\n got %s\nwant %s", digest, bytes.TrimSpace(wantDigest))
			}

			// The fixture stream itself must decode to the same digest; every
			// other window, tile set and worker count is held to this decode
			// by TestDecodeRequestIdentity.
			fix, err := unmarshalStream(want, enc.Config)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := fix.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if d := decodedDigest(serial); d != digest {
				t.Fatalf("fixture serial decode digest %s, want %s", d, digest)
			}
		})
	}
}
