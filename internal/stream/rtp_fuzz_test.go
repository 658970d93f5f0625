package stream

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// FuzzRTPReceiver feeds arbitrary bytes through a connection to the RTP
// receiver, the one online receive path, calling NextAccessUnit until it
// returns an error other than a gap. Each call returns an access unit, a
// *StreamGapError, io.EOF or another error; it never panics, and neither
// the access unit nor the bytes it buffers outgrow the bytes fed.
func FuzzRTPReceiver(f *testing.F) {
	packets := func(pkts ...rtpPacket) []byte {
		var buf bytes.Buffer
		for i := range pkts {
			if err := WriteFramed(&buf, marshalRTP(&pkts[i])); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	clean := packets(
		rtpPacket{Seq: 0, Marker: true, Payload: []byte("a")},
		rtpPacket{Seq: 1, Timestamp: 6000, Payload: []byte("b")},
		rtpPacket{Seq: 2, Marker: true, Timestamp: 6000, Payload: []byte("b")},
		rtpPacket{Seq: 3, Marker: true, Timestamp: 12000, Payload: []byte("c")},
	)
	f.Add(clean) // three access units
	f.Add(packets(
		rtpPacket{Seq: 0, Marker: true, Payload: []byte("a")},
		rtpPacket{Seq: 5, Marker: true, Timestamp: 6000, Payload: []byte("b")},
	)) // a sequence gap
	f.Add(append(clean, 0, 0)) // a truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		c1, c2 := net.Pipe()
		go func() {
			c1.Write(data) // fails once the receiver closes
			c1.Close()
		}()
		recv := NewRTPReceiver(c2)
		defer recv.Close()
		for {
			au, err := recv.NextAccessUnit()
			if len(au) > len(data) || len(recv.buf) > len(data) {
				t.Fatalf("%d-byte access unit, %d bytes buffered, from %d bytes fed", len(au), len(recv.buf), len(data))
			}
			var gap *StreamGapError
			switch {
			case err == nil:
			case errors.As(err, &gap):
				if gap.Missing < 1 || gap.Missing >= 1<<15 {
					t.Fatalf("gap %+v: Missing out of range", gap)
				}
			case au != nil:
				t.Fatalf("access unit returned with error %v", err)
			default:
				if err != io.EOF && len(data) == 0 {
					t.Fatalf("empty stream: %v, want io.EOF", err)
				}
				return
			}
		}
	})
}
