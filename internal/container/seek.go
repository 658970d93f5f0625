package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/metrics"
)

// This file exposes the trailing INDX box for random access: mapping a
// PTS window to the keyframe-aligned sample span that must be read to
// decode it, without parsing any sample payload outside that span. It
// is the container-level seam of the range-aware decode layer: the
// sample index answers "which bytes do I need for [t1, t2)?" so a
// reader can skip directly to the governing keyframe instead of
// demuxing (and later decoding) the whole clip.

// IndexEntry describes one sample as recorded in the INDX box: enough
// to seek to it (byte offset and box size) and to reason about decode
// dependencies (keyframe flag, PTS) without touching the payload.
type IndexEntry struct {
	Track    int
	Keyframe bool
	// PTS is the sample's presentation timestamp in 90 kHz ticks.
	PTS uint64
	// Offset is the byte offset of the sample's SAMP box header from the
	// start of the file.
	Offset uint64
	// Size is the payload (access unit) size in bytes.
	Size uint32
}

// sampleBoxLen is the full on-disk length of the SAMP box holding an
// entry: 8-byte box header + 4-byte track + 1-byte keyframe flag +
// 8-byte PTS + payload.
func (e IndexEntry) sampleBoxLen() uint64 { return 8 + 13 + uint64(e.Size) }

// Index is a parsed sample index, in file order.
type Index struct {
	Entries []IndexEntry
}

// Span is the contiguous region of a file covering one track's samples
// [First, Last) (indices into the track's sample sequence, not the
// interleaved file sequence). Offset/Length delimit the byte range that
// contains every spanned sample box; samples of other tracks
// interleaved inside the range are skipped by the parser, not read
// around.
type Span struct {
	// First and Last bound the track-relative sample indices [First, Last).
	First, Last int
	// Offset is the byte offset of the first spanned sample box.
	Offset uint64
	// Length is the byte length from Offset through the end of the last
	// spanned sample box.
	Length uint64
}

// Empty reports whether the span selects no samples.
func (s Span) Empty() bool { return s.Last <= s.First }

// ReadIndex returns the file's sample index, reading only box headers
// (and the INDX payload) — sample payloads are seeked over, never
// parsed. Files written before the index existed, or truncated past it,
// fall back to a linear header scan that reconstructs the same entries
// from the SAMP boxes themselves.
func ReadIndex(r io.ReadSeeker) (*Index, error) {
	sp := metrics.StartSpan(metrics.StageSeek)
	defer sp.End()
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("container: seeking index: %w", err)
	}
	var scanned []IndexEntry
	var offset uint64
	first := true
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if first {
					return nil, errors.New("container: empty input")
				}
				// No INDX box: serve the linearly scanned entries.
				return &Index{Entries: scanned}, nil
			}
			return nil, err
		}
		var tag [4]byte
		copy(tag[:], hdr[:4])
		n := binary.BigEndian.Uint32(hdr[4:])
		if n > 1<<30 {
			return nil, fmt.Errorf("container: implausible box size %d", n)
		}
		if first && tag != tagFile {
			return nil, fmt.Errorf("container: bad magic %q", tag[:])
		}
		switch tag {
		case tagIndex:
			payload := make([]byte, n)
			if _, err := io.ReadFull(r, payload); err != nil {
				return nil, fmt.Errorf("container: truncated index: %w", err)
			}
			return parseIndexBox(payload)
		case tagSample:
			// Header-only scan: track, keyframe, PTS live in the first 13
			// payload bytes; the access unit itself is seeked over.
			var sh [13]byte
			if n < uint32(len(sh)) {
				return nil, errors.New("container: truncated sample box")
			}
			if _, err := io.ReadFull(r, sh[:]); err != nil {
				return nil, fmt.Errorf("container: truncated sample box: %w", err)
			}
			scanned = append(scanned, IndexEntry{
				Track:    int(binary.BigEndian.Uint32(sh[:4])),
				Keyframe: sh[4] == 1,
				PTS:      binary.BigEndian.Uint64(sh[5:13]),
				Offset:   offset,
				Size:     n - uint32(len(sh)),
			})
			if _, err := r.Seek(int64(n)-int64(len(sh)), io.SeekCurrent); err != nil {
				return nil, fmt.Errorf("container: seeking past sample: %w", err)
			}
		default:
			if _, err := r.Seek(int64(n), io.SeekCurrent); err != nil {
				return nil, fmt.Errorf("container: seeking past box %q: %w", tag[:], err)
			}
		}
		offset += 8 + uint64(n)
		first = false
	}
}

// parseIndexBox decodes the INDX payload written by Writer.Close.
func parseIndexBox(payload []byte) (*Index, error) {
	if len(payload) < 4 {
		return nil, errors.New("container: truncated index")
	}
	n := binary.BigEndian.Uint32(payload)
	const entryLen = 4 + 1 + 8 + 8 + 4
	if uint64(len(payload)-4) != uint64(n)*entryLen {
		return nil, fmt.Errorf("container: index payload is %d bytes, want %d entries", len(payload)-4, n)
	}
	idx := &Index{Entries: make([]IndexEntry, 0, n)}
	off := 4
	for i := uint32(0); i < n; i++ {
		idx.Entries = append(idx.Entries, IndexEntry{
			Track:    int(binary.BigEndian.Uint32(payload[off:])),
			Keyframe: payload[off+4] == 1,
			PTS:      binary.BigEndian.Uint64(payload[off+5:]),
			Offset:   binary.BigEndian.Uint64(payload[off+13:]),
			Size:     binary.BigEndian.Uint32(payload[off+21:]),
		})
		off += entryLen
	}
	return idx, nil
}

// TrackEntries returns the index entries of one track, in file order.
func (x *Index) TrackEntries(track int) []IndexEntry {
	var out []IndexEntry
	for _, e := range x.Entries {
		if e.Track == track {
			out = append(out, e)
		}
	}
	return out
}

// WindowSpan maps a PTS window [lo, hi) on a track to the sample span
// that must be read to decode it: the samples whose PTS falls in the
// window, extended backward to the governing keyframe (the nearest
// preceding sample flagged as a keyframe — a decoder must seed there).
// An empty window, or one past the end of the track, returns an empty
// span.
func (x *Index) WindowSpan(track int, lo, hi uint64) Span {
	entries := x.TrackEntries(track)
	first, last := -1, -1
	for i, e := range entries {
		if e.PTS >= hi {
			break
		}
		if e.PTS >= lo && first < 0 {
			first = i
		}
		last = i + 1
	}
	if first < 0 {
		return Span{}
	}
	// Seed from the governing keyframe.
	for first > 0 && !entries[first].Keyframe {
		first--
	}
	return Span{
		First:  first,
		Last:   last,
		Offset: entries[first].Offset,
		Length: entries[last-1].Offset + entries[last-1].sampleBoxLen() - entries[first].Offset,
	}
}

// ExtractSpan reads the samples of a track's span from r, touching only
// the bytes inside the span. Interleaved samples of other tracks are
// skipped by header inspection; nothing before Offset or after
// Offset+Length is read.
func ExtractSpan(r io.ReadSeeker, track int, span Span) ([]Sample, error) {
	if span.Empty() {
		return nil, nil
	}
	sp := metrics.StartSpan(metrics.StageSeek)
	sp.Frames(span.Last - span.First)
	sp.Bytes(int64(span.Length))
	defer sp.End()
	if _, err := r.Seek(int64(span.Offset), io.SeekStart); err != nil {
		return nil, fmt.Errorf("container: seeking to span: %w", err)
	}
	var out []Sample
	var read uint64
	for read < span.Length {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("container: truncated span: %w", err)
		}
		var tag [4]byte
		copy(tag[:], hdr[:4])
		n := binary.BigEndian.Uint32(hdr[4:])
		if tag != tagSample {
			return nil, fmt.Errorf("container: span contains non-sample box %q", tag[:])
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("container: truncated sample in span: %w", err)
		}
		s, err := parseSample(payload)
		if err != nil {
			return nil, err
		}
		if s.Track == track {
			out = append(out, s)
		}
		read += 8 + uint64(n)
	}
	if want := span.Last - span.First; len(out) != want {
		return nil, fmt.Errorf("container: span yielded %d samples, want %d", len(out), want)
	}
	return out, nil
}
