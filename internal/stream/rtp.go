package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"repro/internal/codec"
)

// The RTP transport follows the shape of RFC 3550: fixed 12-byte
// headers carrying version, marker, payload type, sequence number,
// 90 kHz timestamp, and SSRC. Access units larger than the MTU are
// fragmented across packets; the marker bit flags the final packet of
// each access unit. Packets are length-prefixed (a common RTP-over-TCP
// framing) on any net.Conn: a loopback TCP socket, or one end of an
// in-memory net.Pipe.

const (
	rtpVersion     = 2
	rtpPayloadType = 96 // dynamic
	rtpMTU         = 1400
	rtpHeaderLen   = 12
	// rtpClockRate is the RTP media clock (90 kHz, the conventional
	// video rate); timestamps map back to frame indices through it.
	rtpClockRate = 90000
)

// ErrTruncated marks a connection severed mid-packet: a partial length
// prefix or body. It is never conflated with a clean end of stream —
// a benchmark stream that ends this way was cut, not completed.
var ErrTruncated = errors.New("stream: connection cut mid-packet")

// ErrFaultCut is returned by the sender when its fault plan severed the
// connection mid-header (the injected counterpart of ErrTruncated).
var ErrFaultCut = errors.New("stream: fault injection cut the connection")

// StreamGapError reports a break in the RTP sequence space: Missing
// packets were lost between sequence numbers From and To. By the time
// the caller sees it the receiver has already resynchronized to the
// next access-unit boundary, so the stream remains readable; callers
// decide whether to recover (the online decoder waits for the next
// intra frame) or abort.
type StreamGapError struct {
	From, To uint16
	Missing  int
}

func (e *StreamGapError) Error() string {
	return fmt.Sprintf("stream: RTP sequence gap: %d -> %d (%d packet(s) lost)", e.From, e.To, e.Missing)
}

// rtpPacket is one parsed RTP packet.
type rtpPacket struct {
	Marker    bool
	Seq       uint16
	Timestamp uint32
	SSRC      uint32
	Payload   []byte
}

func marshalRTP(p *rtpPacket) []byte {
	buf := make([]byte, rtpHeaderLen+len(p.Payload))
	buf[0] = rtpVersion << 6
	pt := byte(rtpPayloadType)
	if p.Marker {
		pt |= 0x80
	}
	buf[1] = pt
	binary.BigEndian.PutUint16(buf[2:], p.Seq)
	binary.BigEndian.PutUint32(buf[4:], p.Timestamp)
	binary.BigEndian.PutUint32(buf[8:], p.SSRC)
	copy(buf[rtpHeaderLen:], p.Payload)
	return buf
}

func parseRTP(buf []byte) (*rtpPacket, error) {
	if len(buf) < rtpHeaderLen {
		return nil, fmt.Errorf("stream: RTP packet too short (%d bytes)", len(buf))
	}
	if buf[0]>>6 != rtpVersion {
		return nil, fmt.Errorf("stream: unsupported RTP version %d", buf[0]>>6)
	}
	return &rtpPacket{
		Marker:    buf[1]&0x80 != 0,
		Seq:       binary.BigEndian.Uint16(buf[2:]),
		Timestamp: binary.BigEndian.Uint32(buf[4:]),
		SSRC:      binary.BigEndian.Uint32(buf[8:]),
		Payload:   buf[rtpHeaderLen:],
	}, nil
}

// FrameIndexOf maps a 90 kHz RTP timestamp back to the source frame
// index at the given capture rate (rounding to the nearest frame).
func FrameIndexOf(ts uint32, fps int) int {
	if fps <= 0 {
		return 0
	}
	return int((uint64(ts)*uint64(fps) + rtpClockRate/2) / rtpClockRate)
}

// RTPSender streams encoded access units over a connection, paced at
// the camera's capture rate when a clock is supplied (nil clock = no
// pacing, for tests). An attached FaultPlan degrades the outgoing
// stream deterministically: every fault key but dial applies here.
type RTPSender struct {
	conn  net.Conn
	ssrc  uint32
	seq   uint16
	clock Clock
	fps   int
	start time.Time
	sent  int
	plan  *FaultPlan
	pkts  int    // framed writes attempted (fault-schedule index)
	held  []byte // packet delayed by a reorder fault
}

// NewRTPSender wraps conn for sending at fps. clock may be nil to
// disable pacing.
func NewRTPSender(conn net.Conn, ssrc uint32, fps int, clock Clock) *RTPSender {
	return &RTPSender{conn: conn, ssrc: ssrc, fps: fps, clock: clock}
}

// InjectFaults attaches a deterministic fault plan to the sender.
func (s *RTPSender) InjectFaults(plan *FaultPlan) { s.plan = plan }

// SendAccessUnitCtx fragments and transmits one encoded frame, after
// its capture time on the pacing clock and any stall the fault plan
// injects before it. Pacing and stall sleeps abort with ctx.Err() when
// the context ends.
func (s *RTPSender) SendAccessUnitCtx(ctx context.Context, au []byte, frameIndex int) error {
	if s.clock != nil {
		if s.sent == 0 {
			s.start = s.clock.Now()
		}
		due := s.start.Add(time.Duration(frameIndex) * time.Second / time.Duration(s.fps))
		if wait := due.Sub(s.clock.Now()); wait > 0 {
			if err := s.clock.SleepCtx(ctx, wait); err != nil {
				return err
			}
		}
	}
	if d, ok := s.plan.StallBefore(frameIndex); ok {
		sleeper := s.clock
		if sleeper == nil {
			sleeper = RealClock{}
		}
		if err := sleeper.SleepCtx(ctx, d); err != nil {
			return err
		}
	}
	ts := uint32(uint64(frameIndex) * rtpClockRate / uint64(s.fps))
	for off := 0; off < len(au) || off == 0; off += rtpMTU {
		end := off + rtpMTU
		if end > len(au) {
			end = len(au)
		}
		pkt := &rtpPacket{
			Marker:    end == len(au),
			Seq:       s.seq,
			Timestamp: ts,
			SSRC:      s.ssrc,
			Payload:   au[off:end],
		}
		s.seq++
		if err := s.transmit(marshalRTP(pkt)); err != nil {
			return err
		}
		if end == len(au) {
			break
		}
	}
	s.sent++
	return nil
}

// transmit applies the fault plan to one marshalled packet and writes
// whatever "the network" lets through. Sequence numbers were already
// assigned, so a dropped packet leaves a gap the receiver can observe.
func (s *RTPSender) transmit(raw []byte) error {
	i := s.pkts
	s.pkts++
	if s.plan != nil {
		if s.plan.CutPacket(i) {
			// Write half the length prefix, then sever the connection:
			// the receiver must see a truncation, not a clean EOF.
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(len(raw)))
			s.conn.Write(hdr[:2])
			s.conn.Close()
			return ErrFaultCut
		}
		if s.plan.DropPacket(i) {
			return nil // lost in transit
		}
		if pos, ok := s.plan.CorruptPacket(i); ok && len(raw) > rtpHeaderLen {
			raw = append([]byte(nil), raw...)
			raw[rtpHeaderLen+pos%(len(raw)-rtpHeaderLen)] ^= 0x40
		}
		if s.held != nil {
			held := s.held
			s.held = nil
			if err := WriteFramed(s.conn, raw); err != nil {
				return err
			}
			return WriteFramed(s.conn, held)
		}
		if s.plan.ReorderPacket(i) {
			s.held = append([]byte(nil), raw...)
			return nil
		}
	}
	return WriteFramed(s.conn, raw)
}

// Close flushes any reorder-held packet and closes the underlying
// connection, signalling end of stream.
func (s *RTPSender) Close() error {
	if s.held != nil {
		held := s.held
		s.held = nil
		WriteFramed(s.conn, held)
	}
	return s.conn.Close()
}

// RTPReceiver reassembles access units from a connection.
type RTPReceiver struct {
	conn    net.Conn
	buf     []byte
	lastSeq uint16
	haveSeq bool
	lastTS  uint32
	// skipToMarker is set after a sequence gap: the in-flight access
	// unit is unrecoverable, so packets are discarded until the marker
	// that ends it, after which the stream is clean again.
	skipToMarker bool
}

// NewRTPReceiver wraps conn for receiving.
func NewRTPReceiver(conn net.Conn) *RTPReceiver { return &RTPReceiver{conn: conn} }

// LastTimestamp returns the RTP timestamp of the most recently returned
// access unit (valid after a successful NextAccessUnit).
func (r *RTPReceiver) LastTimestamp() uint32 { return r.lastTS }

// NextAccessUnit blocks until a whole access unit has been received.
// io.EOF signals a cleanly closed stream; a *StreamGapError reports
// lost packets (the receiver has already resynchronized to the next
// access-unit boundary and remains readable); a connection severed
// mid-packet surfaces ErrTruncated, never a clean EOF.
func (r *RTPReceiver) NextAccessUnit() ([]byte, error) {
	for {
		raw, err := ReadFramed(r.conn)
		if err != nil {
			if err == io.EOF && len(r.buf) > 0 {
				return nil, fmt.Errorf("stream: %d byte(s) of partial access unit at EOF: %w", len(r.buf), ErrTruncated)
			}
			return nil, err
		}
		pkt, err := parseRTP(raw)
		if err != nil {
			return nil, err
		}
		if r.haveSeq && int16(pkt.Seq-r.lastSeq) <= 0 {
			// Late or duplicate: a reordered packet whose successor
			// already arrived. Its loss was reported as a gap then.
			continue
		}
		if r.skipToMarker {
			// Tail of the access unit broken by a gap; the packet after
			// its marker starts clean.
			r.lastSeq, r.haveSeq = pkt.Seq, true
			if pkt.Marker {
				r.skipToMarker = false
			}
			continue
		}
		if r.haveSeq && pkt.Seq != r.lastSeq+1 {
			gap := &StreamGapError{
				From:    r.lastSeq,
				To:      pkt.Seq,
				Missing: int(uint16(pkt.Seq-r.lastSeq)) - 1,
			}
			r.lastSeq = pkt.Seq
			r.buf = nil
			// The packet closing the gap may itself be mid-unit; its
			// access unit cannot be trusted either, so discard up to and
			// including its marker.
			r.skipToMarker = !pkt.Marker
			return nil, gap
		}
		r.lastSeq, r.haveSeq = pkt.Seq, true
		r.buf = append(r.buf, pkt.Payload...)
		if pkt.Marker {
			au := r.buf
			r.buf = nil
			r.lastTS = pkt.Timestamp
			return au, nil
		}
	}
}

// Close closes the underlying connection.
func (r *RTPReceiver) Close() error { return r.conn.Close() }

// MaxFrameSize bounds a framed packet: larger length prefixes are
// treated as corruption, not allocation requests.
const MaxFrameSize = 1 << 24

// frameChunk is the allocation granularity of ReadFramed's body read:
// memory grows with bytes actually received, so a corrupt length prefix
// claiming MaxFrameSize against a short body costs one chunk, not 16 MiB.
const frameChunk = 64 << 10

// WriteFramed writes a 4-byte big-endian length prefix then the packet.
// It is the wire unit shared by the RTP transport and the shard
// protocol.
func WriteFramed(w io.Writer, pkt []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(pkt)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(pkt)
	return err
}

// ReadFramed reads one length-prefixed packet. Only a zero-byte header
// read is a clean io.EOF; a partial header or body means the connection
// was cut mid-packet and surfaces ErrTruncated. Allocation is bounded
// by the bytes actually received (plus one chunk), so hostile or
// corrupt length prefixes error cleanly instead of forcing a large
// up-front allocation.
func ReadFramed(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("stream: partial packet header: %w", ErrTruncated)
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrameSize {
		return nil, fmt.Errorf("stream: implausible packet size %d", n)
	}
	cap0 := n
	if cap0 > frameChunk {
		cap0 = frameChunk
	}
	buf := make([]byte, 0, cap0)
	for len(buf) < n {
		chunk := n - len(buf)
		if chunk > frameChunk {
			chunk = frameChunk
		}
		start := len(buf)
		// Grow only past the capacity: the first chunk fits cap0, so a
		// short body costs the one chunk allocated above.
		buf = slices.Grow(buf, chunk)[:start+chunk]
		if m, err := io.ReadFull(r, buf[start:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("stream: partial packet body (%d of %d bytes): %w", start+m, n, ErrTruncated)
			}
			return nil, err
		}
	}
	return buf, nil
}

// SendVideo streams an encoded video over conn as RTP, one access unit
// per capture interval on clock (nil clock: no pacing), and closes conn
// at the end. plan degrades the stream deterministically: stalls before
// access units (slept on the wall clock when clock is nil) and drop,
// reorder, corrupt and cut per packet. Cancelling ctx closes conn, so a
// send blocked on a reader that stopped returns ctx.Err().
func SendVideo(ctx context.Context, conn net.Conn, enc *codec.Encoded, clock Clock, plan *FaultPlan) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	sender := NewRTPSender(conn, 0x56525244, enc.Config.FPS, clock)
	sender.InjectFaults(plan)
	for i, f := range enc.Frames {
		if err := sender.SendAccessUnitCtx(ctx, f.Data, i); err != nil {
			conn.Close()
			// An injected cut is the root cause even when the receiver,
			// having read the truncation, cancelled ctx before this check.
			if cerr := ctx.Err(); cerr != nil && !errors.Is(err, ErrFaultCut) {
				return cerr
			}
			return err
		}
	}
	return sender.Close()
}

// ServeRTP streams an encoded video over a loopback TCP listener and
// returns the address to connect to. The server accepts one client,
// sends to it with SendVideo, then closes. Exactly one error (nil on
// success) is reported on errc when the server goroutine exits, so
// callers can always join it; cancelling ctx closes the listener and
// any live connection, unblocking accept and in-flight writes.
func ServeRTP(ctx context.Context, enc *codec.Encoded, clock Clock, plan *FaultPlan) (addr string, errc <-chan error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan error, 1)
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		stop()
		ln.Close()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			ch <- err
			return
		}
		ch <- SendVideo(ctx, c, enc, clock, plan)
	}()
	return ln.Addr().String(), ch, nil
}
