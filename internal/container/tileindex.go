package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/parallel"
)

// The TIDX box records, for each sample of a tiled video track, the
// byte size of every tile's payload within the sample's access unit.
// Together with the INDX sample offsets this pins down the absolute
// byte range of any (sample, tile) pair, so a reader can fetch a
// (time-window × tile-set) rectangle of bytes — the spatial analog of
// INDX-driven span extraction. Layout of the box payload:
//
//	track uint32 — the track the box describes
//	tiles uint32 — tile count T (grid row-major order)
//	count uint32 — number of samples n of that track
//	n × T uint32 — tile payload sizes, sample-major
//
// One TIDX box is written per tiled video track, after INDX. Old
// readers skip it (unknown boxes are ignored); files without it fall
// back to full-AU extraction.

var tagTileIndex = [4]byte{'T', 'I', 'D', 'X'}

// TileIndex is a parsed TIDX box: per-sample, per-tile payload sizes of
// one track.
type TileIndex struct {
	Track int
	Tiles int
	// Sizes[i][t] is the payload size of tile t in the track's i-th
	// sample (track-relative order, matching Index.TrackEntries).
	Sizes [][]uint32
}

// writeTileIndexes appends one TIDX box per tiled video track (called
// by Close, after the INDX box).
func (cw *Writer) writeTileIndexes() error {
	for ti, t := range cw.tracks {
		if t.Kind != TrackVideo || !t.Codec.Tiled() {
			continue
		}
		tiles := t.Codec.TileCount()
		var buf bytes.Buffer
		var b4 [4]byte
		count := 0
		for _, e := range cw.index {
			if int(e.track) == ti {
				count++
			}
		}
		for _, v := range [3]uint32{uint32(ti), uint32(tiles), uint32(count)} {
			binary.BigEndian.PutUint32(b4[:], v)
			buf.Write(b4[:])
		}
		for _, e := range cw.index {
			if int(e.track) != ti {
				continue
			}
			if len(e.tiles) != tiles {
				return fmt.Errorf("container: track %d sample has %d tile sizes, want %d", ti, len(e.tiles), tiles)
			}
			for _, sz := range e.tiles {
				binary.BigEndian.PutUint32(b4[:], sz)
				buf.Write(b4[:])
			}
		}
		if err := cw.writeBox(tagTileIndex, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// ReadTileIndex returns the TIDX box of the given track, reading only
// box headers on the way (sample payloads are seeked over). A file
// without a TIDX box for the track returns (nil, nil): the caller falls
// back to full-AU extraction.
func ReadTileIndex(r io.ReadSeeker, track int) (*TileIndex, error) {
	sp := metrics.StartSpan(metrics.StageSeek)
	defer sp.End()
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("container: seeking tile index: %w", err)
	}
	first := true
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if first {
					return nil, errors.New("container: empty input")
				}
				return nil, nil
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
		if tag == tagTileIndex {
			payload := make([]byte, n)
			if _, err := io.ReadFull(r, payload); err != nil {
				return nil, fmt.Errorf("container: truncated tile index: %w", err)
			}
			tx, err := parseTileIndexBox(payload)
			if err != nil {
				return nil, err
			}
			if tx.Track == track {
				return tx, nil
			}
		} else if _, err := r.Seek(int64(n), io.SeekCurrent); err != nil {
			return nil, fmt.Errorf("container: seeking past box %q: %w", tag[:], err)
		}
		first = false
	}
}

// parseTileIndexBox decodes a TIDX payload. The expected byte length is
// computed from the declared counts before any table allocation, so a
// corrupt header cannot trigger unbounded allocation.
func parseTileIndexBox(payload []byte) (*TileIndex, error) {
	if len(payload) < 12 {
		return nil, errors.New("container: truncated tile index")
	}
	track := binary.BigEndian.Uint32(payload)
	tiles := binary.BigEndian.Uint32(payload[4:])
	count := binary.BigEndian.Uint32(payload[8:])
	if tiles == 0 || tiles > 64 {
		return nil, fmt.Errorf("container: tile index declares %d tiles", tiles)
	}
	want := uint64(count) * uint64(tiles) * 4
	if uint64(len(payload)-12) != want {
		return nil, fmt.Errorf("container: tile index payload is %d bytes, want %d samples × %d tiles",
			len(payload)-12, count, tiles)
	}
	tx := &TileIndex{Track: int(track), Tiles: int(tiles), Sizes: make([][]uint32, count)}
	off := 12
	for i := range tx.Sizes {
		row := make([]uint32, tiles)
		for t := range row {
			row[t] = binary.BigEndian.Uint32(payload[off:])
			off += 4
		}
		tx.Sizes[i] = row
	}
	return tx, nil
}

// tileOffsets returns the absolute byte offset of each tile's payload
// within the sample described by e, derived from the INDX entry and the
// TIDX size row: the access unit starts after the box header (8 bytes)
// and sample header (13 bytes), leads with the 4·T-byte directory, and
// concatenates payloads in tile order. The sizes must account for the
// access unit exactly.
func tileOffsets(e IndexEntry, sizes []uint32) ([]uint64, error) {
	offs := make([]uint64, len(sizes)+1)
	offs[0] = e.Offset + 8 + 13 + 4*uint64(len(sizes))
	for t, sz := range sizes {
		offs[t+1] = offs[t] + uint64(sz)
	}
	if want := e.Offset + 8 + 13 + uint64(e.Size); offs[len(sizes)] != want {
		return nil, fmt.Errorf("container: tile sizes sum to %d bytes, sample has %d",
			offs[len(sizes)]-offs[0], uint64(e.Size)-4*uint64(len(sizes)))
	}
	return offs, nil
}

// ExtractTileSpan reads the (span × tile-set) rectangle of bytes of a
// tiled track: for each spanned sample, only the selected tiles'
// payload bytes are fetched by positioned reads, and each sample is
// reassembled as a partial access unit — a directory carrying zero for
// the absent tiles, which the codec layer treats as "not fetched". The
// samples come back in track order, as ExtractSpan returns them; byte
// traffic is proportional to the selected tiles' share of the span,
// which is where the spatial-selectivity win comes from.
func ExtractTileSpan(ra io.ReaderAt, track int, x *Index, tx *TileIndex, span Span, tiles []int, workers int) ([]Sample, error) {
	entries := x.SpanEntries(track, span)
	if len(entries) == 0 {
		return nil, nil
	}
	if tx == nil || tx.Track != track {
		return nil, errors.New("container: no tile index for track")
	}
	if len(tx.Sizes) < span.Last {
		return nil, fmt.Errorf("container: tile index covers %d samples, span needs %d", len(tx.Sizes), span.Last)
	}
	sel := make([]bool, tx.Tiles)
	for _, t := range tiles {
		if t < 0 || t >= tx.Tiles {
			return nil, fmt.Errorf("container: tile %d outside grid of %d tiles", t, tx.Tiles)
		}
		sel[t] = true
	}
	sp := metrics.StartSpan(metrics.StageSeek)
	sp.Frames(len(entries))
	defer sp.End()
	out := make([]Sample, len(entries))
	var fetched int64
	err := parallel.ForEach(workers, len(entries), func(i int) error {
		e := entries[i]
		sizes := tx.Sizes[span.First+i]
		offs, err := tileOffsets(e, sizes)
		if err != nil {
			return err
		}
		dir := 4 * tx.Tiles
		n := dir
		for t, sz := range sizes {
			if sel[t] {
				n += int(sz)
			}
		}
		data := make([]byte, n)
		pos := dir
		for t, sz := range sizes {
			if !sel[t] {
				continue // directory entry stays zero: tile absent
			}
			binary.BigEndian.PutUint32(data[4*t:], sz)
			if _, err := ra.ReadAt(data[pos:pos+int(sz)], int64(offs[t])); err != nil {
				return fmt.Errorf("container: reading tile %d at %d: %w", t, offs[t], err)
			}
			pos += int(sz)
		}
		out[i] = Sample{Track: track, Keyframe: e.Keyframe, PTS: e.PTS, Data: data}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		fetched += int64(len(out[i].Data))
	}
	sp.Bytes(fetched)
	return out, nil
}
