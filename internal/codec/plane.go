package codec

import "encoding/binary"

// plane is a padded sample plane. Width and height are rounded up to a
// multiple of the macroblock size so the encoder can operate on whole
// blocks; the visible region (the original frame dimensions) is stored
// separately and restored when converting back to a frame.
type plane struct {
	w, h int // padded dimensions
	pix  []byte
}

func newPlane(w, h, align int) *plane {
	pw := (w + align - 1) / align * align
	ph := (h + align - 1) / align * align
	return &plane{w: pw, h: ph, pix: make([]byte, pw*ph)}
}

// loadFrom copies src (sw×sh) into the plane, replicating the right and
// bottom edges into the padding so motion search and transforms see
// continuous content.
func (p *plane) loadFrom(src []byte, sw, sh int) {
	for y := 0; y < p.h; y++ {
		sy := y
		if sy >= sh {
			sy = sh - 1
		}
		row := src[sy*sw : sy*sw+sw]
		dst := p.pix[y*p.w : y*p.w+p.w]
		copy(dst, row)
		for x := sw; x < p.w; x++ {
			dst[x] = row[sw-1]
		}
	}
}

// storeTo copies the visible (sw×sh) region of the plane into dst.
func (p *plane) storeTo(dst []byte, sw, sh int) {
	for y := 0; y < sh; y++ {
		copy(dst[y*sw:y*sw+sw], p.pix[y*p.w:y*p.w+sw])
	}
}

// at returns the sample at (x, y) with edge clamping, allowing motion
// vectors to reference samples just outside the padded plane.
func (p *plane) at(x, y int) byte {
	if x < 0 {
		x = 0
	} else if x >= p.w {
		x = p.w - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.h {
		y = p.h - 1
	}
	return p.pix[y*p.w+x]
}

// rowAt returns the n samples of row y starting at column x, clamped at
// the plane edges exactly as at clamps them. A run inside the plane is a
// view of the row; a run that crosses the left or right edge is built in
// buf, one fill per out-of-plane segment and one copy for the rest.
func (p *plane) rowAt(x, y, n int, buf *[16]byte) []byte {
	if y < 0 {
		y = 0
	} else if y >= p.h {
		y = p.h - 1
	}
	row := p.pix[y*p.w : y*p.w+p.w]
	if x >= 0 && x+n <= p.w {
		return row[x : x+n]
	}
	lo := min(max(-x, 0), n)     // samples left of the plane
	hi := max(min(p.w-x, n), lo) // end of the in-plane samples
	for i := 0; i < lo; i++ {
		buf[i] = row[0]
	}
	if lo < hi {
		copy(buf[lo:hi], row[x+lo:])
	}
	for i := hi; i < n; i++ {
		buf[i] = row[p.w-1]
	}
	return buf[:n]
}

// SAD kernels work on 8 samples per uint64 load, split into two words of
// four 16-bit lanes (even and odd bytes) so that no per-sample difference
// can borrow from its neighbour.
const (
	laneLo  = 0x00FF00FF00FF00FF // low byte of every 16-bit lane
	laneBit = 0x0100010001000100 // bit 8 of every lane
	laneOne = 0x0001000100010001 // bit 0 of every lane
)

// absDiffLanes returns |a−b| per 16-bit lane; every lane of a and b
// holds one sample in [0, 255].
func absDiffLanes(a, b uint64) uint64 {
	d := (a | laneBit) - b          // 256 + a − b, in [1, 511]: bit 8 set iff a ≥ b
	neg := (^d >> 8) & laneOne      // 1 in the lanes where a < b
	m := neg<<8 - neg               // 0xFF in those lanes
	return ((d & laneLo) ^ m) + neg // a−b, or 255−(256+a−b)+1 = b−a
}

// sad8Lanes returns the absolute differences of the 8 samples packed in
// a and b, summed pairwise into four 16-bit lanes (each ≤ 510).
func sad8Lanes(a, b uint64) uint64 {
	return absDiffLanes(a&laneLo, b&laneLo) + absDiffLanes(a>>8&laneLo, b>>8&laneLo)
}

// sadBlock computes the sum of absolute differences between the bs×bs
// block (bs is 8 or 16) of cur at (cx, cy) and the block of ref at
// (cx+mvx, cy+mvy), reference samples outside the plane clamped to its
// edge. earlyOut aborts after the first row at which the running sum
// exceeds the given bound. A 16×16 block whose reference lies inside the
// plane — nearly every motion-search candidate — takes a loop of its own,
// free of the per-row edge and block-size tests.
func sadBlock(cur, ref *plane, cx, cy, mvx, mvy, bs int, earlyOut int) int {
	rx, ry := cx+mvx, cy+mvy
	interior := rx >= 0 && ry >= 0 && rx+bs <= ref.w && ry+bs <= ref.h
	sum := 0
	if interior && bs == 16 {
		c, r := cur.pix[cy*cur.w+cx:], ref.pix[ry*ref.w+rx:]
		for y := 0; y < 16; y++ {
			cr, rr := c[y*cur.w:][:16], r[y*ref.w:][:16]
			lanes := sad8Lanes(binary.LittleEndian.Uint64(cr), binary.LittleEndian.Uint64(rr)) +
				sad8Lanes(binary.LittleEndian.Uint64(cr[8:]), binary.LittleEndian.Uint64(rr[8:]))
			sum += int(lanes * laneOne >> 48)
			if sum > earlyOut {
				return sum
			}
		}
		return sum
	}
	var edge [16]byte
	for y := 0; y < bs; y++ {
		c := cur.pix[(cy+y)*cur.w+cx:][:bs]
		var r []byte
		if interior {
			r = ref.pix[(ry+y)*ref.w+rx:][:bs]
		} else {
			r = ref.rowAt(rx, ry+y, bs, &edge)
		}
		lanes := sad8Lanes(binary.LittleEndian.Uint64(c), binary.LittleEndian.Uint64(r))
		if bs == 16 {
			lanes += sad8Lanes(binary.LittleEndian.Uint64(c[8:]), binary.LittleEndian.Uint64(r[8:]))
		}
		// Lanes hold at most 4·255 each, so their sum fits the top lane.
		sum += int(lanes * laneOne >> 48)
		if sum > earlyOut {
			return sum
		}
	}
	return sum
}

// seenRange is the widest search range whose visited set motionSearch
// tracks: one uint64 of x bits per y row covers ±seenRange (the HEVC
// preset's 16). Candidates farther out are simply evaluated again.
const seenRange = 16

// motionSearch finds the full-pel motion vector within ±searchRange that
// minimizes the SAD for the 16×16 luma block at (cx, cy) in cur against
// ref, using a three-step-style logarithmic search seeded at (0, 0) and
// at the predicted vector (px, py).
//
// Two prunings leave the chosen vector and SAD unchanged (DESIGN.md
// §5.9): the search returns once best is 0, which no candidate can beat,
// and it skips candidates it has already evaluated — best never rises, so
// a point that was not below it then is not below it now.
func motionSearch(cur, ref *plane, cx, cy, searchRange, px, py int) (mvx, mvy, sad int) {
	var seen [2*seenRange + 1]uint64
	// visit marks (x, y) and reports whether it was already marked.
	visit := func(x, y int) bool {
		if x < -seenRange || x > seenRange || y < -seenRange || y > seenRange {
			return false
		}
		bit := uint64(1) << uint(x+seenRange)
		was := seen[y+seenRange]&bit != 0
		seen[y+seenRange] |= bit
		return was
	}
	best := sadBlock(cur, ref, cx, cy, 0, 0, 16, 1<<30)
	bx, by := 0, 0
	visit(0, 0)
	if best > 0 && (px != 0 || py != 0) {
		visit(px, py)
		if s := sadBlock(cur, ref, cx, cy, px, py, 16, best); s < best {
			best, bx, by = s, px, py
		}
	}
	step := searchRange / 2
	if step < 1 {
		step = 1
	}
	for step >= 1 {
		improved := true
		for improved {
			improved = false
			for _, d := range [8][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {-1, 1}, {1, -1}, {1, 1}} {
				if best == 0 {
					return bx, by, 0
				}
				nx, ny := bx+d[0]*step, by+d[1]*step
				if nx < -searchRange || nx > searchRange || ny < -searchRange || ny > searchRange {
					continue
				}
				if visit(nx, ny) {
					continue
				}
				if s := sadBlock(cur, ref, cx, cy, nx, ny, 16, best); s < best {
					best, bx, by = s, nx, ny
					improved = true
				}
			}
		}
		step /= 2
	}
	return bx, by, best
}
