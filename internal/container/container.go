// Package container implements the box-structured media container that
// stands in for MP4 (ISO/IEC 14496-14) in this reproduction. A file is
// a sequence of length-prefixed boxes:
//
//	VRMF — file header (magic + version)
//	TRAK — track header: kind ("vide"/"text"), codec config or MIME
//	SAMP — one sample: track index, keyframe flag, timestamp, payload
//	INDX — optional trailing sample index enabling random access
//
// Readers skip a box of any other tag, such as the TIDX tile index that
// earlier builds wrote after INDX.
//
// Video samples are codec access units; text samples carry WebVTT
// payloads, which is how Q6(b)'s caption track is "embedded as a
// metadata track within the input video's container" per the paper.
package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
)

// Box type tags (4 bytes each, fixed).
var (
	tagFile   = [4]byte{'V', 'R', 'M', 'F'}
	tagTrack  = [4]byte{'T', 'R', 'A', 'K'}
	tagSample = [4]byte{'S', 'A', 'M', 'P'}
	tagIndex  = [4]byte{'I', 'N', 'D', 'X'}
)

const formatVersion = 1

// TrackKind discriminates media types within a file.
type TrackKind string

// The supported track kinds.
const (
	TrackVideo TrackKind = "vide"
	TrackText  TrackKind = "text"
)

// Track describes one stream within a container file.
type Track struct {
	Kind TrackKind
	// Video configuration (TrackVideo only).
	Codec codec.Config
	// MIME type for text tracks, e.g. "text/vtt".
	MIME string
}

// Sample is one timed payload belonging to a track.
type Sample struct {
	Track    int
	Keyframe bool
	// PTS is the presentation timestamp in 90 kHz ticks, following the
	// MPEG convention.
	PTS  uint64
	Data []byte
}

// File is a fully-parsed container: tracks plus all samples in order.
type File struct {
	Tracks  []Track
	Samples []Sample
}

// VideoTrack returns the index of the first video track, or -1.
func (f *File) VideoTrack() int {
	for i, t := range f.Tracks {
		if t.Kind == TrackVideo {
			return i
		}
	}
	return -1
}

// TextTrack returns the index of the first text track, or -1.
func (f *File) TextTrack() int {
	for i, t := range f.Tracks {
		if t.Kind == TrackText {
			return i
		}
	}
	return -1
}

// TrackSamples returns the samples belonging to track i, in order.
func (f *File) TrackSamples(i int) []Sample {
	var out []Sample
	for _, s := range f.Samples {
		if s.Track == i {
			out = append(out, s)
		}
	}
	return out
}

// Ticks90k converts a frame index at the given FPS to 90 kHz ticks.
func Ticks90k(frameIndex, fps int) uint64 {
	return uint64(frameIndex) * 90000 / uint64(fps)
}

// Writer streams a container file to an io.Writer. Tracks must be added
// before the first sample is written.
type Writer struct {
	w       io.Writer
	tracks  []Track
	started bool
	index   []indexEntry
	offset  uint64
	err     error
}

type indexEntry struct {
	track    uint32
	keyframe bool
	pts      uint64
	offset   uint64
	size     uint32
}

// NewWriter begins a container file on w.
func NewWriter(w io.Writer) (*Writer, error) {
	cw := &Writer{w: w}
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, tagFile[:]...)
	hdr = binary.BigEndian.AppendUint32(hdr, formatVersion)
	if err := cw.writeBox(tagFile, hdr[4:]); err != nil {
		return nil, err
	}
	return cw, nil
}

// AddTrack appends a track definition and returns its index.
func (cw *Writer) AddTrack(t Track) (int, error) {
	if cw.started {
		return 0, errors.New("container: tracks must be added before samples")
	}
	var buf bytes.Buffer
	buf.WriteString(string(t.Kind))
	switch t.Kind {
	case TrackVideo:
		writeCodecConfig(&buf, t.Codec)
	case TrackText:
		var lb [2]byte
		binary.BigEndian.PutUint16(lb[:], uint16(len(t.MIME)))
		buf.Write(lb[:])
		buf.WriteString(t.MIME)
	default:
		return 0, fmt.Errorf("container: unknown track kind %q", t.Kind)
	}
	if err := cw.writeBox(tagTrack, buf.Bytes()); err != nil {
		return 0, err
	}
	cw.tracks = append(cw.tracks, t)
	return len(cw.tracks) - 1, nil
}

// WriteSample appends a sample box.
func (cw *Writer) WriteSample(s Sample) error {
	if s.Track < 0 || s.Track >= len(cw.tracks) {
		return fmt.Errorf("container: sample references track %d of %d", s.Track, len(cw.tracks))
	}
	cw.started = true
	// A tiled access unit's directory must account for its payload.
	if t := &cw.tracks[s.Track]; t.Kind == TrackVideo && t.Codec.Tiled() {
		if _, err := codec.TileSizes(s.Data, t.Codec.TileCount()); err != nil {
			return fmt.Errorf("container: sample for tiled track %d: %w", s.Track, err)
		}
	}
	var buf bytes.Buffer
	var b4 [4]byte
	binary.BigEndian.PutUint32(b4[:], uint32(s.Track))
	buf.Write(b4[:])
	if s.Keyframe {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	var b8 [8]byte
	binary.BigEndian.PutUint64(b8[:], s.PTS)
	buf.Write(b8[:])
	buf.Write(s.Data)
	off := cw.offset
	if err := cw.writeBox(tagSample, buf.Bytes()); err != nil {
		return err
	}
	cw.index = append(cw.index, indexEntry{
		track: uint32(s.Track), keyframe: s.Keyframe, pts: s.PTS,
		offset: off, size: uint32(len(s.Data)),
	})
	return nil
}

// Close writes the trailing sample index. The underlying writer is not
// closed.
func (cw *Writer) Close() error {
	if cw.err != nil {
		return cw.err
	}
	var buf bytes.Buffer
	var b4 [4]byte
	binary.BigEndian.PutUint32(b4[:], uint32(len(cw.index)))
	buf.Write(b4[:])
	for _, e := range cw.index {
		binary.BigEndian.PutUint32(b4[:], e.track)
		buf.Write(b4[:])
		if e.keyframe {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		var b8 [8]byte
		binary.BigEndian.PutUint64(b8[:], e.pts)
		buf.Write(b8[:])
		binary.BigEndian.PutUint64(b8[:], e.offset)
		buf.Write(b8[:])
		binary.BigEndian.PutUint32(b4[:], e.size)
		buf.Write(b4[:])
	}
	return cw.writeBox(tagIndex, buf.Bytes())
}

func (cw *Writer) writeBox(tag [4]byte, payload []byte) error {
	if cw.err != nil {
		return cw.err
	}
	var hdr [8]byte
	copy(hdr[:4], tag[:])
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := cw.w.Write(hdr[:]); err != nil {
		cw.err = err
		return err
	}
	if _, err := cw.w.Write(payload); err != nil {
		cw.err = err
		return err
	}
	cw.offset += uint64(8 + len(payload))
	return nil
}

func writeCodecConfig(buf *bytes.Buffer, c codec.Config) {
	var b4 [4]byte
	vals := []uint32{
		uint32(c.Width), uint32(c.Height), uint32(c.FPS),
		uint32(c.Preset.ID), uint32(c.QP), uint32(c.BitrateKbps), uint32(c.GOP),
	}
	// The tile grid is appended only for tiled streams, so untiled
	// container bytes are unchanged from the pre-tile format (the golden
	// corpus pins this) and old readers stop after the seventh field.
	if c.Tiled() {
		vals = append(vals, uint32(c.TileRows), uint32(c.TileCols))
	}
	for _, v := range vals {
		binary.BigEndian.PutUint32(b4[:], v)
		buf.Write(b4[:])
	}
}

func readCodecConfig(r io.Reader) (codec.Config, error) {
	var vals [7]uint32
	for i := range vals {
		if err := binary.Read(r, binary.BigEndian, &vals[i]); err != nil {
			return codec.Config{}, err
		}
	}
	preset, err := codec.PresetByID(uint8(vals[3]))
	if err != nil {
		return codec.Config{}, err
	}
	cfg := codec.Config{
		Width: int(vals[0]), Height: int(vals[1]), FPS: int(vals[2]),
		Preset: preset, QP: int(vals[4]), BitrateKbps: int(vals[5]), GOP: int(vals[6]),
	}
	// Optional trailing tile grid (tiled streams only; see
	// writeCodecConfig). A clean EOF here is the untiled default.
	var tiles [2]uint32
	if err := binary.Read(r, binary.BigEndian, &tiles[0]); err != nil {
		if err == io.EOF {
			return cfg, nil
		}
		return codec.Config{}, err
	}
	if err := binary.Read(r, binary.BigEndian, &tiles[1]); err != nil {
		return codec.Config{}, fmt.Errorf("container: truncated tile grid: %w", err)
	}
	cfg.TileRows, cfg.TileCols = int(tiles[0]), int(tiles[1])
	if err := cfg.Validate(); err != nil {
		return codec.Config{}, err
	}
	return cfg, nil
}

// Parse reads an entire container file from r.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	first := true
	for {
		tag, payload, err := readBox(r)
		if err == io.EOF {
			if first {
				return nil, errors.New("container: empty input")
			}
			return f, nil
		}
		if err != nil {
			return nil, err
		}
		if first {
			if tag != tagFile {
				return nil, fmt.Errorf("container: bad magic %q", tag[:])
			}
			if len(payload) < 4 {
				return nil, errors.New("container: truncated file header")
			}
			if v := binary.BigEndian.Uint32(payload); v != formatVersion {
				return nil, fmt.Errorf("container: unsupported version %d", v)
			}
			first = false
			continue
		}
		switch tag {
		case tagTrack:
			t, err := parseTrack(payload)
			if err != nil {
				return nil, err
			}
			f.Tracks = append(f.Tracks, t)
		case tagSample:
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			if s.Track >= len(f.Tracks) {
				return nil, fmt.Errorf("container: sample for undeclared track %d", s.Track)
			}
			f.Samples = append(f.Samples, s)
		case tagIndex:
			// The index is a convenience for random access; Parse
			// already has all samples, so it is validated and dropped.
			if len(payload) < 4 {
				return nil, errors.New("container: truncated index")
			}
			n := binary.BigEndian.Uint32(payload)
			if int(n) != len(f.Samples) {
				return nil, fmt.Errorf("container: index lists %d samples, file has %d", n, len(f.Samples))
			}
		default:
			// Unknown boxes are skipped for forward compatibility.
		}
	}
}

func readBox(r io.Reader) (tag [4]byte, payload []byte, err error) {
	var hdr [8]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return
	}
	copy(tag[:], hdr[:4])
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > 1<<30 {
		err = fmt.Errorf("container: implausible box size %d", n)
		return
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		err = fmt.Errorf("container: truncated box %q: %w", tag[:], err)
	}
	return
}

func parseTrack(payload []byte) (Track, error) {
	if len(payload) < 4 {
		return Track{}, errors.New("container: truncated track box")
	}
	kind := TrackKind(payload[:4])
	body := bytes.NewReader(payload[4:])
	switch kind {
	case TrackVideo:
		cfg, err := readCodecConfig(body)
		if err != nil {
			return Track{}, fmt.Errorf("container: video track config: %w", err)
		}
		return Track{Kind: kind, Codec: cfg}, nil
	case TrackText:
		var n uint16
		if err := binary.Read(body, binary.BigEndian, &n); err != nil {
			return Track{}, err
		}
		mime := make([]byte, n)
		if _, err := io.ReadFull(body, mime); err != nil {
			return Track{}, err
		}
		return Track{Kind: kind, MIME: string(mime)}, nil
	}
	return Track{}, fmt.Errorf("container: unknown track kind %q", kind)
}

func parseSample(payload []byte) (Sample, error) {
	if len(payload) < 13 {
		return Sample{}, errors.New("container: truncated sample box")
	}
	return Sample{
		Track:    int(binary.BigEndian.Uint32(payload[:4])),
		Keyframe: payload[4] == 1,
		PTS:      binary.BigEndian.Uint64(payload[5:13]),
		Data:     payload[13:],
	}, nil
}
