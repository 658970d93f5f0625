package container

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/video"
)

// muxedMultiGOP builds a two-track (video + text) container whose video
// track spans several GOPs, returning the muxed bytes and the encoded
// stream for cross-checking.
func muxedMultiGOP(t *testing.T, frames, gop int) ([]byte, *codec.Encoded) {
	t.Helper()
	v := video.NewVideo(10)
	for i := 0; i < frames; i++ {
		f := video.NewFrame(48, 32)
		for j := range f.Y {
			f.Y[j] = byte(i*31 + j)
		}
		v.Append(f)
	}
	enc, err := codec.EncodeVideo(v, codec.Config{Width: 48, Height: 32, FPS: 10, QP: 20, GOP: gop})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Mux(&buf, enc, []byte("WEBVTT\n\n00:00.000 --> 00:01.000\nhi\n")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), enc
}

// checkSpans asserts that every PTS window maps to the correct
// keyframe-aligned sample span, including windows straddling GOP
// boundaries, and that extracting the span yields exactly the samples
// a full parse sees.
func checkSpans(t *testing.T, data []byte, idx *Index, enc *codec.Encoded) {
	t.Helper()
	f, err := Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	vt := f.VideoTrack()
	all := f.TrackSamples(vt)
	if got := len(idx.TrackEntries(vt)); got != len(all) {
		t.Fatalf("index lists %d video samples, file has %d", got, len(all))
	}
	if tt := f.TextTrack(); tt >= 0 {
		if got := len(idx.TrackEntries(tt)); got != 1 {
			t.Fatalf("index lists %d text samples, want 1", got)
		}
	}
	fps := enc.Config.FPS
	for first := 0; first < len(all); first++ {
		for last := first + 1; last <= len(all); last++ {
			lo, hi := Ticks90k(first, fps), Ticks90k(last, fps)
			span := idx.WindowSpan(vt, lo, hi)
			if span.Empty() {
				t.Fatalf("window [%d, %d) frames [%d, %d): empty span", lo, hi, first, last)
			}
			// The span must start at the governing keyframe of `first` …
			wantFirst := first
			for wantFirst > 0 && !enc.Frames[wantFirst].Keyframe {
				wantFirst--
			}
			if span.First != wantFirst || span.Last != last {
				t.Fatalf("window frames [%d, %d): span [%d, %d), want [%d, %d)",
					first, last, span.First, span.Last, wantFirst, last)
			}
			// … and extracting it must read exactly those samples without
			// touching bytes outside the span.
			got, err := ExtractSpan(bytes.NewReader(data), vt, span)
			if err != nil {
				t.Fatalf("extract frames [%d, %d): %v", first, last, err)
			}
			for i, s := range got {
				want := all[wantFirst+i]
				if s.PTS != want.PTS || s.Keyframe != want.Keyframe || !bytes.Equal(s.Data, want.Data) {
					t.Fatalf("window frames [%d, %d): sample %d differs from full parse", first, last, i)
				}
			}
			if !got[0].Keyframe {
				t.Fatalf("window frames [%d, %d): span does not start on a keyframe", first, last)
			}
		}
	}
	// A window past the end of the track is empty, not an error.
	if span := idx.WindowSpan(vt, Ticks90k(len(all), fps), Ticks90k(len(all)+4, fps)); !span.Empty() {
		t.Fatalf("past-the-end window produced span %+v", span)
	}
}

func TestIndexWindowSpans(t *testing.T) {
	data, enc := muxedMultiGOP(t, 11, 4) // GOPs: [0..3], [4..7], [8..10]
	idx, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	checkSpans(t, data, idx, enc)
}

// TestIndexFallbackLinearScan covers files without a trailing INDX box:
// the index is reconstructed by a header-only linear scan and must be
// identical to the written one.
func TestIndexFallbackLinearScan(t *testing.T) {
	data, enc := muxedMultiGOP(t, 11, 4)
	indexed, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the container without Close(), so no INDX box is emitted.
	f, err := Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range f.Tracks {
		if _, err := w.AddTrack(tr); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range f.Samples {
		if err := w.WriteSample(s); err != nil {
			t.Fatal(err)
		}
	}
	noIndex := buf.Bytes()

	scanned, err := ReadIndex(bytes.NewReader(noIndex))
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned.Entries) != len(indexed.Entries) {
		t.Fatalf("linear scan found %d entries, index has %d", len(scanned.Entries), len(indexed.Entries))
	}
	for i, e := range scanned.Entries {
		if e != indexed.Entries[i] {
			t.Fatalf("entry %d: scan %+v, index %+v", i, e, indexed.Entries[i])
		}
	}
	checkSpans(t, noIndex, scanned, enc)
}
