package container

import (
	"errors"
	"io"

	"repro/internal/codec"
	"repro/internal/metrics"
)

// Mux writes an encoded video and an optional WebVTT caption payload
// into a single container stream.
func Mux(w io.Writer, enc *codec.Encoded, vtt []byte) error {
	sp := metrics.StartSpan(metrics.StageMux)
	sp.Frames(len(enc.Frames))
	sp.Bytes(int64(enc.Size() + len(vtt)))
	defer sp.End()
	cw, err := NewWriter(w)
	if err != nil {
		return err
	}
	vidTrack, err := cw.AddTrack(Track{Kind: TrackVideo, Codec: enc.Config})
	if err != nil {
		return err
	}
	textTrack := -1
	if len(vtt) > 0 {
		textTrack, err = cw.AddTrack(Track{Kind: TrackText, MIME: "text/vtt"})
		if err != nil {
			return err
		}
	}
	if textTrack >= 0 {
		// The caption document is carried as a single keyframe sample at
		// PTS 0, mirroring an embedded metadata track.
		if err := cw.WriteSample(Sample{Track: textTrack, Keyframe: true, Data: vtt}); err != nil {
			return err
		}
	}
	for i, f := range enc.Frames {
		s := Sample{
			Track:    vidTrack,
			Keyframe: f.Keyframe,
			PTS:      Ticks90k(i, enc.Config.FPS),
			Data:     f.Data,
		}
		if err := cw.WriteSample(s); err != nil {
			return err
		}
	}
	return cw.Close()
}

// Demux parses a container stream and returns the encoded video together
// with the embedded WebVTT payload (nil when absent).
func Demux(r io.Reader) (*codec.Encoded, []byte, error) {
	f, err := Parse(r)
	if err != nil {
		return nil, nil, err
	}
	vi := f.VideoTrack()
	if vi < 0 {
		return nil, nil, errors.New("container: no video track")
	}
	enc := &codec.Encoded{Config: f.Tracks[vi].Codec}
	for _, s := range f.TrackSamples(vi) {
		enc.Frames = append(enc.Frames, codec.EncodedFrame{Data: s.Data, Keyframe: s.Keyframe})
	}
	var vtt []byte
	if ti := f.TextTrack(); ti >= 0 {
		ts := f.TrackSamples(ti)
		if len(ts) > 0 {
			vtt = ts[0].Data
		}
	}
	return enc, vtt, nil
}
