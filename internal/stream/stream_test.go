package stream

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/video"
)

func encodedFixture(t *testing.T, frames int) *codec.Encoded {
	t.Helper()
	v := video.NewVideo(15)
	for i := 0; i < frames; i++ {
		f := video.NewFrame(48, 32)
		for j := range f.Y {
			f.Y[j] = byte((j*3 + i*11) % 200)
		}
		v.Append(f)
	}
	enc, err := codec.EncodeVideo(v, codec.Config{QP: 20, GOP: 5})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// sendOverPipe starts SendVideo on one end of a net.Pipe and returns a
// receiver on the other end and the sender's terminal error.
func sendOverPipe(ctx context.Context, enc *codec.Encoded, clock Clock, plan *FaultPlan) (*RTPReceiver, <-chan error) {
	c1, c2 := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- SendVideo(ctx, c1, enc, clock, plan) }()
	return NewRTPReceiver(c2), errc
}

// The pipe transport is synchronous: the sender blocks until the
// receiver reads, and the receiver gets every access unit in order,
// then io.EOF.
func TestPipeBlocksAndDrains(t *testing.T) {
	enc := encodedFixture(t, 6)
	recv, errc := sendOverPipe(context.Background(), enc, nil, nil)
	select {
	case err := <-errc:
		t.Fatalf("sender finished with nobody reading: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	for i := range enc.Frames {
		au, err := recv.NextAccessUnit()
		if err != nil {
			t.Fatalf("access unit %d: %v", i, err)
		}
		if !bytes.Equal(au, enc.Frames[i].Data) {
			t.Fatalf("access unit %d out of order or altered", i)
		}
		if got := FrameIndexOf(recv.LastTimestamp(), enc.Config.FPS); got != i {
			t.Fatalf("access unit %d carries frame index %d", i, got)
		}
	}
	if _, err := recv.NextAccessUnit(); err != io.EOF {
		t.Errorf("after six access units: %v, want io.EOF", err)
	}
	if err := <-errc; err != nil {
		t.Errorf("sender: %v", err)
	}
}

func TestPipeWriteAfterClose(t *testing.T) {
	c1, c2 := net.Pipe()
	NewRTPReceiver(c2).Close()
	if err := SendVideo(context.Background(), c1, encodedFixture(t, 2), nil, nil); err != io.ErrClosedPipe {
		t.Errorf("send to a closed receiver = %v, want io.ErrClosedPipe", err)
	}
}

func TestRTPRoundTrip(t *testing.T) {
	enc := encodedFixture(t, 5)
	addr, errc, err := ServeRTP(context.Background(), enc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	recv := NewRTPReceiver(conn)
	var got [][]byte
	for {
		au, err := recv.NextAccessUnit()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, au)
	}
	recv.Close()
	if err := <-errc; err != nil {
		t.Fatalf("sender error: %v", err)
	}
	if len(got) != len(enc.Frames) {
		t.Fatalf("received %d access units, want %d", len(got), len(enc.Frames))
	}
	for i := range got {
		if string(got[i]) != string(enc.Frames[i].Data) {
			t.Fatalf("access unit %d corrupted in transit", i)
		}
	}
	// The received stream must decode.
	dec, err := codec.NewDecoder(enc.Config)
	if err != nil {
		t.Fatal(err)
	}
	for i, au := range got {
		if _, err := dec.Decode(au); err != nil {
			t.Fatalf("decoding received AU %d: %v", i, err)
		}
	}
}

func TestRTPFragmentation(t *testing.T) {
	// An AU bigger than the MTU must fragment and reassemble.
	big := make([]byte, rtpMTU*3+100)
	for i := range big {
		big[i] = byte(i)
	}
	c1, c2 := net.Pipe()
	sender := NewRTPSender(c1, 1, 30, nil)
	go func() {
		sender.SendAccessUnitCtx(context.Background(), big, 0)
		sender.Close()
	}()
	recv := NewRTPReceiver(c2)
	au, err := recv.NextAccessUnit()
	if err != nil {
		t.Fatal(err)
	}
	if len(au) != len(big) {
		t.Fatalf("reassembled %d bytes, want %d", len(au), len(big))
	}
	for i := range au {
		if au[i] != big[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestRTPHeaderRoundTrip(t *testing.T) {
	p := &rtpPacket{Marker: true, Seq: 12345, Timestamp: 90000, SSRC: 0xdeadbeef, Payload: []byte("hi")}
	got, err := parseRTP(marshalRTP(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Marker != p.Marker || got.Seq != p.Seq || got.Timestamp != p.Timestamp ||
		got.SSRC != p.SSRC || string(got.Payload) != "hi" {
		t.Errorf("round trip = %+v", got)
	}
}

func TestRTPRejectsShortPacket(t *testing.T) {
	if _, err := parseRTP([]byte{1, 2, 3}); err == nil {
		t.Error("short packet should fail")
	}
}

func TestRTPSequenceGapDetected(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		// Send seq 0 then seq 5 (gap).
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 0, Marker: true, Payload: []byte("a")}))
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 5, Marker: true, Payload: []byte("b")}))
		c1.Close()
	}()
	recv := NewRTPReceiver(c2)
	if _, err := recv.NextAccessUnit(); err != nil {
		t.Fatalf("first AU: %v", err)
	}
	if _, err := recv.NextAccessUnit(); err == nil {
		t.Error("sequence gap should be reported")
	}
}

// TestFakeClockAdvance: a fake clock advances by what it sleeps, and
// records the sleep.
func TestFakeClockAdvance(t *testing.T) {
	c := NewFakeClock(time.Unix(100, 0))
	if got := c.Now(); got != time.Unix(100, 0) {
		t.Errorf("Now = %v", got)
	}
	c.Sleep(time.Second)
	if got := c.Now(); got != time.Unix(101, 0) {
		t.Errorf("after Sleep Now = %v", got)
	}
	if len(c.Slept) != 1 || c.Slept[0] != time.Second {
		t.Errorf("Slept = %v", c.Slept)
	}
}
