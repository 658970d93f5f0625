package container

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/codec"
	"repro/internal/video"
)

func testEncoded(t *testing.T, frames int) *codec.Encoded {
	t.Helper()
	v := video.NewVideo(15)
	for i := 0; i < frames; i++ {
		f := video.NewFrame(32, 32)
		for j := range f.Y {
			f.Y[j] = byte((j + i*7) % 200)
		}
		v.Append(f)
	}
	enc, err := codec.EncodeVideo(v, codec.Config{QP: 20, GOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestMuxDemuxRoundTrip(t *testing.T) {
	enc := testEncoded(t, 6)
	vtt := []byte("WEBVTT\n\n00:00:00.000 --> 00:00:01.000\nHI\n")
	var buf bytes.Buffer
	if err := Mux(&buf, enc, vtt); err != nil {
		t.Fatal(err)
	}
	got, gotVTT, err := Demux(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotVTT, vtt) {
		t.Errorf("captions = %q, want %q", gotVTT, vtt)
	}
	if len(got.Frames) != len(enc.Frames) {
		t.Fatalf("demuxed %d frames, want %d", len(got.Frames), len(enc.Frames))
	}
	for i := range got.Frames {
		if !bytes.Equal(got.Frames[i].Data, enc.Frames[i].Data) {
			t.Fatalf("frame %d payload differs", i)
		}
		if got.Frames[i].Keyframe != enc.Frames[i].Keyframe {
			t.Fatalf("frame %d keyframe flag differs", i)
		}
	}
	if got.Config.Width != 32 || got.Config.Height != 32 || got.Config.FPS != 15 {
		t.Errorf("config = %+v", got.Config)
	}
	// The decoded video must round-trip through the container.
	dec, err := got.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Frames) != 6 {
		t.Errorf("decoded %d frames", len(dec.Frames))
	}
}

func TestMuxWithoutCaptions(t *testing.T) {
	enc := testEncoded(t, 2)
	var buf bytes.Buffer
	if err := Mux(&buf, enc, nil); err != nil {
		t.Fatal(err)
	}
	_, vtt, err := Demux(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if vtt != nil {
		t.Errorf("expected no captions, got %q", vtt)
	}
}

func TestParseRejectsBadMagic(t *testing.T) {
	if _, err := Parse(bytes.NewReader([]byte("XXXX\x00\x00\x00\x04abcd"))); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

func TestParseRejectsTruncatedBox(t *testing.T) {
	enc := testEncoded(t, 2)
	var buf bytes.Buffer
	if err := Mux(&buf, enc, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Parse(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated container should fail")
	}
}

func TestParseRejectsUnsupportedVersion(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = cw
	data := buf.Bytes()
	// Bump the version field (last byte of the header payload).
	data[len(data)-1] = 99
	if _, err := Parse(bytes.NewReader(data)); err == nil {
		t.Error("unsupported version should fail")
	}
}

func TestWriterRejectsSampleForUnknownTrack(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteSample(Sample{Track: 0, Data: []byte("x")}); err == nil {
		t.Error("sample without declared track should fail")
	}
}

func TestWriterRejectsTrackAfterSamples(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.AddTrack(Track{Kind: TrackText, MIME: "text/vtt"}); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteSample(Sample{Track: 0, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cw.AddTrack(Track{Kind: TrackText, MIME: "text/vtt"}); err == nil {
		t.Error("adding a track after samples should fail")
	}
}

func TestWriterRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.AddTrack(Track{Kind: "wat?"}); err == nil {
		t.Error("unknown track kind should fail")
	}
}

func TestIndexValidated(t *testing.T) {
	enc := testEncoded(t, 3)
	var buf bytes.Buffer
	if err := Mux(&buf, enc, nil); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Samples) != 3 {
		t.Errorf("parsed %d samples, want 3", len(f.Samples))
	}
}

func TestTicks90k(t *testing.T) {
	if got := Ticks90k(30, 30); got != 90000 {
		t.Errorf("Ticks90k(30, 30) = %d, want 90000", got)
	}
	if got := Ticks90k(0, 15); got != 0 {
		t.Errorf("Ticks90k(0, 15) = %d", got)
	}
}

func TestTrackLookups(t *testing.T) {
	f := &File{Tracks: []Track{
		{Kind: TrackText, MIME: "text/vtt"},
		{Kind: TrackVideo},
	}}
	if f.VideoTrack() != 1 {
		t.Errorf("VideoTrack = %d", f.VideoTrack())
	}
	if f.TextTrack() != 0 {
		t.Errorf("TextTrack = %d", f.TextTrack())
	}
	empty := &File{}
	if empty.VideoTrack() != -1 || empty.TextTrack() != -1 {
		t.Error("lookups on empty file should be -1")
	}
}

// muxedTiled builds a muxed container whose video track is tile-mode
// (2x2 grid) across several GOPs.
func muxedTiled(t *testing.T, frames, gop int) ([]byte, *codec.Encoded) {
	t.Helper()
	v := video.NewVideo(10)
	for i := 0; i < frames; i++ {
		f := video.NewFrame(48, 32)
		for j := range f.Y {
			f.Y[j] = byte(i*31 + j)
		}
		v.Append(f)
	}
	enc, err := codec.EncodeVideo(v, codec.Config{
		Width: 48, Height: 32, FPS: 10, QP: 20, GOP: gop, TileRows: 2, TileCols: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Mux(&buf, enc, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), enc
}

// TestTiledConfigRoundTrip pins that the tile grid survives mux/demux
// and that untiled tracks keep the pre-tile TRAK byte layout.
func TestTiledConfigRoundTrip(t *testing.T) {
	data, enc := muxedTiled(t, 8, 4)
	got, _, err := Demux(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.TileRows != 2 || got.Config.TileCols != 2 {
		t.Fatalf("demuxed grid %dx%d, want 2x2", got.Config.TileRows, got.Config.TileCols)
	}
	if got.Config != enc.Config {
		t.Fatalf("demuxed config %+v differs from encoded %+v", got.Config, enc.Config)
	}
	// Untiled: no trailing tile fields, config round-trips with zero grid.
	untiled, enc2 := muxedMultiGOP(t, 4, 2)
	got2, _, err := Demux(bytes.NewReader(untiled))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Config.TileRows != 0 || got2.Config.TileCols != 0 {
		t.Fatalf("untiled demux reports grid %dx%d", got2.Config.TileRows, got2.Config.TileCols)
	}
	if got2.Config != enc2.Config {
		t.Fatalf("untiled config changed across mux: %+v vs %+v", got2.Config, enc2.Config)
	}
}

// TestTileIndexAbsent: files this build writes, tiled or not, hold no
// TIDX box; the last box is the INDX sample index.
func TestTileIndexAbsent(t *testing.T) {
	tiled, _ := muxedTiled(t, 4, 2)
	untiled, _ := muxedMultiGOP(t, 4, 2)
	for name, data := range map[string][]byte{"tiled": tiled, "untiled": untiled} {
		r := bytes.NewReader(data)
		var last [4]byte
		for {
			tag, _, err := readBox(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if tag != tagFile && tag != tagTrack && tag != tagSample && tag != tagIndex {
				t.Fatalf("%s: box %q written", name, tag[:])
			}
			last = tag
		}
		if last != tagIndex {
			t.Errorf("%s: last box %q, want INDX", name, last[:])
		}
	}
}

// TestWriterChecksTileDirectory: a tiled track's sample must be an
// access unit whose tile directory accounts for its payload.
func TestWriterChecksTileDirectory(t *testing.T) {
	_, enc := muxedTiled(t, 1, 1)
	cw, err := NewWriter(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.AddTrack(Track{Kind: TrackVideo, Codec: enc.Config}); err != nil {
		t.Fatal(err)
	}
	au := enc.Frames[0].Data
	if err := cw.WriteSample(Sample{Track: 0, Keyframe: true, Data: au[:len(au)-1]}); err == nil {
		t.Error("a tiled sample one byte short of its directory: want error")
	}
	if err := cw.WriteSample(Sample{Track: 0, Keyframe: true, Data: au}); err != nil {
		t.Errorf("a whole tiled access unit: %v", err)
	}
}

// TestTileIndexBoxStillReads reads a tiled file as earlier builds wrote
// it, with a TIDX box (track, tile count, sample count, then every
// sample's tile payload sizes) after INDX: Demux, ReadIndex and
// ExtractSpan give what they give for the same file without the box.
func TestTileIndexBoxStillReads(t *testing.T) {
	data, enc := muxedTiled(t, 10, 5)
	payload := binary.BigEndian.AppendUint32(nil, 0)
	payload = binary.BigEndian.AppendUint32(payload, 4)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(enc.Frames)))
	for _, f := range enc.Frames {
		sizes, err := codec.TileSizes(f.Data, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, sz := range sizes {
			payload = binary.BigEndian.AppendUint32(payload, sz)
		}
	}
	old := append([]byte("TIDX"), binary.BigEndian.AppendUint32(nil, uint32(len(payload)))...)
	old = append(append(bytes.Clone(data), old...), payload...)

	for name, file := range map[string][]byte{"without TIDX": data, "with TIDX": old} {
		got, _, err := Demux(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Config != enc.Config || len(got.Frames) != len(enc.Frames) {
			t.Fatalf("%s: demuxed %+v with %d frames, want %+v with %d", name, got.Config, len(got.Frames), enc.Config, len(enc.Frames))
		}
		for i := range enc.Frames {
			if !bytes.Equal(got.Frames[i].Data, enc.Frames[i].Data) {
				t.Fatalf("%s: frame %d payload differs", name, i)
			}
		}
		r := bytes.NewReader(file)
		idx, err := ReadIndex(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		span := idx.WindowSpan(0, Ticks90k(3, 10), Ticks90k(9, 10))
		samples, err := ExtractSpan(r, 0, span)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(samples) != span.Last-span.First {
			t.Fatalf("%s: span [%d, %d) yielded %d samples", name, span.First, span.Last, len(samples))
		}
		for i, s := range samples {
			if !bytes.Equal(s.Data, enc.Frames[span.First+i].Data) {
				t.Fatalf("%s: span sample %d differs", name, i)
			}
		}
	}
}
