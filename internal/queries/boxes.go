package queries

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/vcity"
	"repro/internal/video"
)

// The VCD exposes the bounding-box input B = Q2c(V) of query Q6(a) in
// two formats: as an encoded video and as a serialized sequence of
// bounding box class identifiers and coordinates. VDBMSs may consume
// either format (§4.1.1). This file implements the serialized format
// and the rendering of boxes into ω-background frames shared by both.

// boxesMagic identifies the serialized boxes format.
var boxesMagic = [4]byte{'V', 'R', 'B', 'X'}

const boxesVersion = 1

// SerializeDetections encodes per-frame detections as the VCD's
// serialized boxes format: a magic/version header, the frame count,
// and for each frame a length-prefixed list of
// (class id, confidence, min/max coordinates) records.
func SerializeDetections(dets [][]metrics.Detection) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, boxesMagic[:]...)
	buf = append(buf, boxesVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(dets)))
	for _, frame := range dets {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(frame)))
		for _, d := range frame {
			buf = append(buf, classID(d.Class))
			buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(d.Confidence)))
			for _, v := range [4]float64{d.Box.MinX, d.Box.MinY, d.Box.MaxX, d.Box.MaxY} {
				buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(v)))
			}
		}
	}
	return buf
}

// ParseDetections decodes the serialized boxes format.
func ParseDetections(data []byte) ([][]metrics.Detection, error) {
	if len(data) < 9 || data[0] != boxesMagic[0] || data[1] != boxesMagic[1] ||
		data[2] != boxesMagic[2] || data[3] != boxesMagic[3] {
		return nil, fmt.Errorf("queries: not a serialized boxes payload")
	}
	if data[4] != boxesVersion {
		return nil, fmt.Errorf("queries: unsupported boxes version %d", data[4])
	}
	pos := 5
	readU32 := func() (uint32, error) {
		if pos+4 > len(data) {
			return 0, fmt.Errorf("queries: truncated boxes payload")
		}
		v := binary.BigEndian.Uint32(data[pos:])
		pos += 4
		return v, nil
	}
	nFrames, err := readU32()
	if err != nil {
		return nil, err
	}
	if nFrames > 1<<22 {
		return nil, fmt.Errorf("queries: implausible frame count %d", nFrames)
	}
	out := make([][]metrics.Detection, nFrames)
	for f := uint32(0); f < nFrames; f++ {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if n > 1<<16 {
			return nil, fmt.Errorf("queries: implausible detection count %d", n)
		}
		for i := uint32(0); i < n; i++ {
			if pos+1 > len(data) {
				return nil, fmt.Errorf("queries: truncated boxes payload")
			}
			cls := data[pos]
			pos++
			var vals [5]float64
			for j := range vals {
				bits, err := readU32()
				if err != nil {
					return nil, err
				}
				vals[j] = float64(math.Float32frombits(bits))
			}
			out[f] = append(out[f], metrics.Detection{
				Class:      className(cls),
				Confidence: vals[0],
				Box:        rectFrom(vals[1], vals[2], vals[3], vals[4]),
			})
		}
	}
	return out, nil
}

func classID(name string) byte {
	if name == vcity.ClassPedestrian.String() {
		return 1
	}
	return 0
}

func className(id byte) string {
	if id == 1 {
		return vcity.ClassPedestrian.String()
	}
	return vcity.ClassVehicle.String()
}

func rectFrom(x1, y1, x2, y2 float64) geom.Rect {
	return geom.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// eachBox calls draw with the rectangle and class color of every
// detection of a wanted class (nil wants all), in drawing order.
func eachBox(dets []metrics.Detection, want map[string]bool, draw func(r geom.Rect, c video.Color)) {
	for _, d := range dets {
		if want != nil && !want[d.Class] {
			continue
		}
		cls := vcity.ClassVehicle
		if d.Class == vcity.ClassPedestrian.String() {
			cls = vcity.ClassPedestrian
		}
		draw(d.Box, ClassColor(cls))
	}
}

// RenderBoxesFrame draws detections of the wanted classes onto an
// ω-background frame of the given size — one frame of the bounding box
// video B.
func RenderBoxesFrame(w, h, index int, dets []metrics.Detection, want map[string]bool) *video.Frame {
	bf := video.NewFrame(w, h)
	bf.Index = index
	eachBox(dets, want, func(r geom.Rect, c video.Color) { render.FillRect(bf, r, c) })
	return bf
}

// OverlayBoxes is Q6(a) for an engine that reads the serialized boxes:
// the ω-coalesce of f with RenderBoxesFrame(f.W, f.H, f.Index, dets,
// want), byte for byte, at the cost of the boxes' area. Away from the
// boxes B is ω and the output is f, so f is copied once and the
// predicate runs only over each box's bounds — widened to even
// coordinates, because FillRect writes the chroma of every 2×2 block it
// touches and coalescing reads that chroma for all four of the block's
// lumas: the fringe outside the box changes too. B exists only inside
// those bounds, in a pooled scratch frame.
func OverlayBoxes(f *video.Frame, dets []metrics.Detection, want map[string]bool) *video.Frame {
	out := copyFrame(f)
	bf := getFrame(f.W, f.H)
	cw := f.ChromaW()
	eachBounds := func(visit func(x0, y0, x1, y1 int)) {
		eachBox(dets, want, func(r geom.Rect, _ video.Color) {
			// The pixels FillRect draws, out to whole 2×2 blocks.
			x0, y0, x1, y1 := render.PixelRect(r, f.W, f.H)
			if x0 < x1 && y0 < y1 {
				visit(x0&^1, y0&^1, min((x1+1)&^1, f.W), min((y1+1)&^1, f.H))
			}
		})
	}
	// All bounds go to ω before any box is drawn, and every box is
	// drawn before any bounds are coalesced: boxes overlap.
	eachBounds(func(x0, y0, x1, y1 int) {
		for y := y0; y < y1; y++ {
			fill(bf.Y[y*f.W+x0:y*f.W+x1], Omega.Y)
		}
		for cy := y0 / 2; cy < (y1+1)/2; cy++ {
			fill(bf.U[cy*cw+x0/2:cy*cw+(x1+1)/2], Omega.U)
			fill(bf.V[cy*cw+x0/2:cy*cw+(x1+1)/2], Omega.V)
		}
	})
	eachBox(dets, want, func(r geom.Rect, c video.Color) { render.FillRect(bf, r, c) })
	eachBounds(func(x0, y0, x1, y1 int) { coalesceRect(out, f, bf, x0, y0, x1, y1) })
	RecycleFrame(bf)
	return out
}

// RenderBoxesVideo draws per-frame detections into a full bounding-box
// video at the given resolution and frame rate.
func RenderBoxesVideo(w, h, fps int, dets [][]metrics.Detection, want map[string]bool) *video.Video {
	out := video.NewVideo(fps)
	for i, frame := range dets {
		out.Append(RenderBoxesFrame(w, h, i, frame, want))
	}
	return out
}
