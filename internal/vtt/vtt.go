// Package vtt implements the subset of WebVTT (W3C Web Video Text
// Tracks) that the Visual Road benchmark requires for query Q6(b):
// timed cues with text payloads and the `line` and `position` cue
// settings, which place a caption vertically and horizontally as a
// percentage of the video frame.
package vtt

import (
	"fmt"
	"strconv"
	"strings"
)

// Cue is one timed caption. Start and End are in seconds. Line and
// Position are percentages in [0, 100]: Line is the vertical placement
// of the caption block and Position its horizontal placement, matching
// the WebVTT cue settings of the same names. A negative value means
// "auto" (bottom-center, per the spec's defaults).
type Cue struct {
	Start, End float64
	Line       float64
	Position   float64
	Text       string
}

// ActiveAt reports whether the cue is visible at time t.
func (c Cue) ActiveAt(t float64) bool { return t >= c.Start && t < c.End }

// Document is an ordered list of cues.
type Document struct {
	Cues []Cue
}

// ActiveAt returns the cues visible at time t, in document order.
func (d *Document) ActiveAt(t float64) []Cue {
	var out []Cue
	for _, c := range d.Cues {
		if c.ActiveAt(t) {
			out = append(out, c)
		}
	}
	return out
}

// Marshal serializes the document as a WebVTT file.
func Marshal(d *Document) []byte {
	var b strings.Builder
	b.WriteString("WEBVTT\n\n")
	for _, c := range d.Cues {
		b.WriteString(timestamp(c.Start))
		b.WriteString(" --> ")
		b.WriteString(timestamp(c.End))
		if c.Line >= 0 {
			fmt.Fprintf(&b, " line:%s%%", trimFloat(c.Line))
		}
		if c.Position >= 0 {
			fmt.Fprintf(&b, " position:%s%%", trimFloat(c.Position))
		}
		b.WriteByte('\n')
		b.WriteString(c.Text)
		b.WriteString("\n\n")
	}
	return []byte(b.String())
}

// Parse reads a WebVTT document, accepting the header, optional cue
// identifiers, cue timings, and the line/position settings. Unknown cue
// settings are ignored, as the spec requires.
func Parse(data []byte) (*Document, error) {
	lines := strings.Split(strings.ReplaceAll(string(data), "\r\n", "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(strings.TrimPrefix(lines[0], "\ufeff"), "WEBVTT") {
		return nil, fmt.Errorf("vtt: missing WEBVTT header")
	}
	d := &Document{}
	i := 1
	for i < len(lines) {
		// Skip blank lines and NOTE blocks.
		line := strings.TrimSpace(lines[i])
		if line == "" {
			i++
			continue
		}
		if strings.HasPrefix(line, "NOTE") {
			for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
				i++
			}
			continue
		}
		// Optional cue identifier: a line without "-->" followed by one with.
		if !strings.Contains(line, "-->") {
			i++
			if i >= len(lines) {
				return nil, fmt.Errorf("vtt: dangling cue identifier %q", line)
			}
			line = strings.TrimSpace(lines[i])
			if !strings.Contains(line, "-->") {
				return nil, fmt.Errorf("vtt: expected cue timings after identifier, got %q", line)
			}
		}
		cue, err := parseTimings(line)
		if err != nil {
			return nil, err
		}
		i++
		var text []string
		for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
			text = append(text, lines[i])
			i++
		}
		cue.Text = strings.Join(text, "\n")
		d.Cues = append(d.Cues, cue)
	}
	return d, nil
}

func parseTimings(line string) (Cue, error) {
	cue := Cue{Line: -1, Position: -1}
	parts := strings.SplitN(line, "-->", 2)
	if len(parts) != 2 {
		return cue, fmt.Errorf("vtt: malformed cue timing line %q", line)
	}
	start, err := parseTimestamp(strings.TrimSpace(parts[0]))
	if err != nil {
		return cue, err
	}
	rest := strings.Fields(strings.TrimSpace(parts[1]))
	if len(rest) == 0 {
		return cue, fmt.Errorf("vtt: missing end timestamp in %q", line)
	}
	end, err := parseTimestamp(rest[0])
	if err != nil {
		return cue, err
	}
	if end <= start {
		return cue, fmt.Errorf("vtt: cue end %.3f <= start %.3f", end, start)
	}
	cue.Start, cue.End = start, end
	for _, setting := range rest[1:] {
		kv := strings.SplitN(setting, ":", 2)
		if len(kv) != 2 {
			continue
		}
		val := strings.TrimSuffix(kv[1], "%")
		switch kv[0] {
		case "line":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				cue.Line = v
			}
		case "position":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				cue.Position = v
			}
		}
	}
	return cue, nil
}

// timestamp formats seconds as HH:MM:SS.mmm.
func timestamp(sec float64) string {
	if sec < 0 {
		sec = 0
	}
	ms := int64(sec*1000 + 0.5)
	h := ms / 3600000
	m := ms % 3600000 / 60000
	s := ms % 60000 / 1000
	f := ms % 1000
	return fmt.Sprintf("%02d:%02d:%02d.%03d", h, m, s, f)
}

// parseTimestamp accepts HH:MM:SS.mmm or MM:SS.mmm.
func parseTimestamp(s string) (float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return 0, fmt.Errorf("vtt: malformed timestamp %q", s)
	}
	var h, m int
	var secPart string
	var err error
	if len(parts) == 3 {
		if h, err = strconv.Atoi(parts[0]); err != nil {
			return 0, fmt.Errorf("vtt: malformed timestamp %q", s)
		}
		if m, err = strconv.Atoi(parts[1]); err != nil {
			return 0, fmt.Errorf("vtt: malformed timestamp %q", s)
		}
		secPart = parts[2]
	} else {
		if m, err = strconv.Atoi(parts[0]); err != nil {
			return 0, fmt.Errorf("vtt: malformed timestamp %q", s)
		}
		secPart = parts[1]
	}
	sec, err := strconv.ParseFloat(secPart, 64)
	if err != nil || sec < 0 || sec >= 60 || m < 0 || m >= 60 || h < 0 {
		return 0, fmt.Errorf("vtt: malformed timestamp %q", s)
	}
	return float64(h)*3600 + float64(m)*60 + sec, nil
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
