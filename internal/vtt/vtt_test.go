package vtt

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	doc := &Document{Cues: []Cue{
		{Start: 1.5, End: 3.25, Line: 10, Position: 40, Text: "HELLO WORLD"},
		{Start: 4, End: 6.125, Line: -1, Position: -1, Text: "NO SETTINGS"},
		{Start: 7, End: 8, Line: 85.5, Position: -1, Text: "LINE ONLY"},
	}}
	got, err := Parse(Marshal(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cues) != len(doc.Cues) {
		t.Fatalf("parsed %d cues, want %d", len(got.Cues), len(doc.Cues))
	}
	for i, c := range got.Cues {
		w := doc.Cues[i]
		if math.Abs(c.Start-w.Start) > 1e-3 || math.Abs(c.End-w.End) > 1e-3 {
			t.Errorf("cue %d timings (%v, %v), want (%v, %v)", i, c.Start, c.End, w.Start, w.End)
		}
		if c.Text != w.Text {
			t.Errorf("cue %d text %q, want %q", i, c.Text, w.Text)
		}
		if (w.Line < 0) != (c.Line < 0) || (w.Line >= 0 && math.Abs(c.Line-w.Line) > 0.01) {
			t.Errorf("cue %d line %v, want %v", i, c.Line, w.Line)
		}
		if (w.Position < 0) != (c.Position < 0) || (w.Position >= 0 && math.Abs(c.Position-w.Position) > 0.01) {
			t.Errorf("cue %d position %v, want %v", i, c.Position, w.Position)
		}
	}
}

func TestParseRejectsMissingHeader(t *testing.T) {
	if _, err := Parse([]byte("00:00:01.000 --> 00:00:02.000\nX\n")); err == nil {
		t.Error("Parse without WEBVTT header should fail")
	}
}

func TestParseAcceptsBOM(t *testing.T) {
	if _, err := Parse([]byte("\ufeffWEBVTT\n\n00:00:01.000 --> 00:00:02.000\nX\n")); err != nil {
		t.Errorf("Parse with BOM failed: %v", err)
	}
}

func TestParseCueIdentifier(t *testing.T) {
	src := "WEBVTT\n\nintro-cue\n00:00:01.000 --> 00:00:02.000\nIDENTIFIED\n"
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Cues) != 1 || doc.Cues[0].Text != "IDENTIFIED" {
		t.Errorf("cues = %+v", doc.Cues)
	}
}

func TestParseSkipsNotes(t *testing.T) {
	src := "WEBVTT\n\nNOTE this is a comment\nspanning lines\n\n00:00:01.000 --> 00:00:02.000\nREAL\n"
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Cues) != 1 || doc.Cues[0].Text != "REAL" {
		t.Errorf("cues = %+v", doc.Cues)
	}
}

func TestParseMMSSTimestamps(t *testing.T) {
	src := "WEBVTT\n\n01:30.500 --> 02:00.000\nSHORT FORM\n"
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(doc.Cues[0].Start-90.5) > 1e-9 {
		t.Errorf("Start = %v, want 90.5", doc.Cues[0].Start)
	}
}

func TestParseRejectsReversedTimings(t *testing.T) {
	src := "WEBVTT\n\n00:00:05.000 --> 00:00:02.000\nBAD\n"
	if _, err := Parse([]byte(src)); err == nil {
		t.Error("reversed cue timings should fail")
	}
}

func TestParseRejectsMalformedTimestamps(t *testing.T) {
	for _, bad := range []string{
		"WEBVTT\n\nxx:00:01.000 --> 00:00:02.000\nX\n",
		"WEBVTT\n\n00:99:01.000 --> 00:99:02.000\nX\n",
		"WEBVTT\n\n5 --> 6\nX\n",
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseIgnoresUnknownSettings(t *testing.T) {
	src := "WEBVTT\n\n00:00:01.000 --> 00:00:02.000 align:left vertical:rl line:30%\nX\n"
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Cues[0].Line != 30 {
		t.Errorf("Line = %v, want 30", doc.Cues[0].Line)
	}
}

func TestMultilineCueText(t *testing.T) {
	src := "WEBVTT\n\n00:00:01.000 --> 00:00:02.000\nLINE ONE\nLINE TWO\n"
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Cues[0].Text != "LINE ONE\nLINE TWO" {
		t.Errorf("Text = %q", doc.Cues[0].Text)
	}
}

func TestActiveAt(t *testing.T) {
	doc := &Document{Cues: []Cue{
		{Start: 0, End: 2, Text: "A"},
		{Start: 1, End: 3, Text: "B"},
	}}
	if got := doc.ActiveAt(1.5); len(got) != 2 {
		t.Errorf("ActiveAt(1.5) = %d cues, want 2", len(got))
	}
	if got := doc.ActiveAt(2.5); len(got) != 1 || got[0].Text != "B" {
		t.Errorf("ActiveAt(2.5) = %+v", got)
	}
	// End is exclusive.
	if got := doc.ActiveAt(3); len(got) != 0 {
		t.Errorf("ActiveAt(3) = %d cues, want 0", len(got))
	}
}

func TestTimestampFormatting(t *testing.T) {
	if got := timestamp(3661.25); got != "01:01:01.250" {
		t.Errorf("timestamp = %q", got)
	}
	if got := timestamp(-5); got != "00:00:00.000" {
		t.Errorf("negative timestamp = %q", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(startMs uint16, durMs uint16, line, pos uint8) bool {
		start := float64(startMs) / 100
		end := start + float64(durMs)/100 + 0.1
		doc := &Document{Cues: []Cue{{
			Start: start, End: end,
			Line: float64(line % 101), Position: float64(pos % 101),
			Text: "PROP TEST",
		}}}
		got, err := Parse(Marshal(doc))
		if err != nil || len(got.Cues) != 1 {
			return false
		}
		c := got.Cues[0]
		return math.Abs(c.Start-start) < 2e-3 && math.Abs(c.End-end) < 2e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalOmitsAutoSettings(t *testing.T) {
	doc := &Document{Cues: []Cue{{Start: 0, End: 1, Line: -1, Position: -1, Text: "X"}}}
	out := string(Marshal(doc))
	if strings.Contains(out, "line:") || strings.Contains(out, "position:") {
		t.Errorf("auto settings serialized: %q", out)
	}
}
