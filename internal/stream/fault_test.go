package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFaultPlanDeterminism(t *testing.T) {
	mk := func() *FaultPlan {
		return &FaultPlan{Seed: 42, Camera: "cam-3", DropRate: 0.05, ReorderRate: 0.03, CorruptRate: 0.02}
	}
	a, b := mk(), mk()
	for i := 0; i < 5000; i++ {
		if a.DropPacket(i) != b.DropPacket(i) {
			t.Fatalf("drop decision %d diverged", i)
		}
		if a.ReorderPacket(i) != b.ReorderPacket(i) {
			t.Fatalf("reorder decision %d diverged", i)
		}
		pa, oka := a.CorruptPacket(i)
		pb, okb := b.CorruptPacket(i)
		if oka != okb || pa != pb {
			t.Fatalf("corrupt decision %d diverged", i)
		}
	}
}

func TestFaultPlanDecorrelatedByCamera(t *testing.T) {
	base := &FaultPlan{Seed: 7, DropRate: 0.1}
	a, b := base.ForCamera("cam-0"), base.ForCamera("cam-1")
	same := true
	for i := 0; i < 2000; i++ {
		if a.DropPacket(i) != b.DropPacket(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("two cameras produced identical drop schedules")
	}
}

func TestFaultPlanRatesRoughlyHonored(t *testing.T) {
	p := &FaultPlan{Seed: 1, DropRate: 0.1}
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.DropPacket(i) {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.08 || got > 0.12 {
		t.Errorf("drop rate %.4f, want ≈0.10", got)
	}
}

func TestParseFaultSpec(t *testing.T) {
	p, err := ParseFaultSpec("0.02", 9, "cam")
	if err != nil || p == nil || p.DropRate != 0.02 {
		t.Fatalf("bare rate: plan=%+v err=%v", p, err)
	}
	p, err = ParseFaultSpec("drop=0.01,reorder=0.005,corrupt=0.001,stall=0.02,stallms=20,cut=12,dial=2", 9, "cam")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropRate != 0.01 || p.ReorderRate != 0.005 || p.CorruptRate != 0.001 ||
		p.StallRate != 0.02 || p.Stall != 20*time.Millisecond || p.CutAtPacket != 12 || p.DialFailures != 2 {
		t.Errorf("parsed plan = %+v", p)
	}
	if p, err = ParseFaultSpec("", 9, "cam"); err != nil || p != nil {
		t.Errorf("empty spec: plan=%+v err=%v", p, err)
	}
	for _, bad := range []string{"drop=2", "wibble=1", "drop", "cut=x",
		"1.5", "-0.3", "NaN", "drop=NaN", "stall=nan", "stallms=9999999999999"} {
		if _, err := ParseFaultSpec(bad, 9, "cam"); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
	if (&FaultPlan{}).Active() || (*FaultPlan)(nil).Active() {
		t.Error("zero/nil plan must be inactive")
	}
}

// FuzzParseFaultSpec: any spec parses to an error, to a nil plan when
// it is blank, or to a plan whose rates lie in [0, 1] and whose stall,
// cut and dial counts are not negative; and parsing is a function of
// its inputs.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("0.02", uint64(9), "cam")
	f.Add("drop=0.01,reorder=0.005,corrupt=0.001,stall=0.02,stallms=20,cut=12,dial=2", uint64(9), "cam")
	f.Add(" \t", uint64(0), "")
	f.Add("drop=NaN", uint64(1), "c")
	f.Add("stallms=9999999999999", uint64(1), "c")
	f.Add("cut=-1,dial=3", uint64(2), "cam-2")
	f.Fuzz(func(t *testing.T, spec string, seed uint64, camera string) {
		p, err := ParseFaultSpec(spec, seed, camera)
		q, err2 := ParseFaultSpec(spec, seed, camera)
		if !reflect.DeepEqual(p, q) || (err == nil) != (err2 == nil) {
			t.Fatalf("%q parsed twice: %+v, %v and %+v, %v", spec, p, err, q, err2)
		}
		blank := strings.TrimSpace(spec) == ""
		switch {
		case err != nil:
			if p != nil || blank {
				t.Fatalf("%q: plan %+v with error %v", spec, p, err)
			}
		case p == nil:
			if !blank {
				t.Fatalf("%q: no plan and no error", spec)
			}
		default:
			for _, r := range []float64{p.DropRate, p.ReorderRate, p.CorruptRate, p.StallRate} {
				if !(r >= 0 && r <= 1) {
					t.Fatalf("%q: rate %v outside [0, 1] in %+v", spec, r, p)
				}
			}
			if p.Stall < 0 || p.CutAtPacket < 0 || p.DialFailures < 0 || p.Seed != seed || p.Camera != camera {
				t.Fatalf("%q: plan %+v", spec, p)
			}
		}
	})
}

// The receiver hanging up races a send: the sender must return, with
// no hang and no panic. Run under -race.
func TestPipeWriteCloseWriteRace(t *testing.T) {
	enc := encodedFixture(t, 6)
	for iter := 0; iter < 50; iter++ {
		recv, errc := sendOverPipe(context.Background(), enc, nil, nil)
		read := make(chan struct{})
		go func() {
			defer close(read)
			for {
				if _, err := recv.NextAccessUnit(); err != nil {
					return
				}
			}
		}()
		go recv.Close()
		select {
		case <-errc:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: sender still blocked after the receiver closed", iter)
		}
		<-read
	}
}

func TestPipeCloseReadUnblocksWriter(t *testing.T) {
	recv, errc := sendOverPipe(context.Background(), encodedFixture(t, 2), nil, nil)
	time.Sleep(10 * time.Millisecond) // let the sender block: nobody reads
	recv.Close()
	select {
	case err := <-errc:
		if err != io.ErrClosedPipe {
			t.Errorf("blocked send after the receiver closed = %v, want io.ErrClosedPipe", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send still blocked after the receiver closed")
	}
}

func TestPipeWriteCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	recv, errc := sendOverPipe(ctx, encodedFixture(t, 2), nil, nil)
	defer recv.Close()
	time.Sleep(10 * time.Millisecond) // let the sender block: nobody reads
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Errorf("blocked send after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send still blocked after cancel")
	}
}

// Everything sent reaches the receiver before io.EOF, including a
// packet the reorder fault held back and the sender flushes on close.
func TestPipeNextDrainsBeforeEOF(t *testing.T) {
	enc := encodedFixture(t, 1)
	if n := len(enc.Frames[0].Data); n > rtpMTU {
		t.Fatalf("fixture access unit is %d bytes, want one packet", n)
	}
	recv, errc := sendOverPipe(context.Background(), enc, nil, &FaultPlan{Seed: 1, ReorderRate: 1})
	au, err := recv.NextAccessUnit()
	if err != nil || !bytes.Equal(au, enc.Frames[0].Data) {
		t.Fatalf("held access unit: %d bytes, %v", len(au), err)
	}
	if _, err := recv.NextAccessUnit(); err != io.EOF {
		t.Errorf("after drain: %v, want io.EOF", err)
	}
	if err := <-errc; err != nil {
		t.Errorf("sender: %v", err)
	}
}

func TestSleepCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := (RealClock{}).SleepCtx(ctx, time.Hour); err != context.Canceled {
		t.Errorf("RealClock.SleepCtx cancelled = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancelled SleepCtx actually slept")
	}
	fc := NewFakeClock(time.Unix(0, 0))
	if err := fc.SleepCtx(ctx, time.Hour); err != context.Canceled {
		t.Errorf("FakeClock.SleepCtx cancelled = %v", err)
	}
	if !fc.Now().Equal(time.Unix(0, 0)) {
		t.Error("cancelled fake sleep advanced the clock")
	}
	if err := fc.SleepCtx(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	if !fc.Now().Equal(time.Unix(1, 0)) {
		t.Error("fake sleep did not advance the clock")
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	fails := 2
	retries, err := Retry(context.Background(), fc, RetryPolicy{Seed: 3}, func() error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || retries != 2 {
		t.Errorf("retries=%d err=%v, want 2,nil", retries, err)
	}
	if len(fc.Slept) != 2 {
		t.Errorf("slept %d times, want 2 backoffs", len(fc.Slept))
	}
	// Jittered exponential backoff: each wait in [0.5,1.0)× the step.
	for i, d := range fc.Slept {
		base := 10 * time.Millisecond << uint(i)
		if d < base/2 || d >= base {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, d, base/2, base)
		}
	}
}

func TestRetryDeterministicBackoff(t *testing.T) {
	run := func() []time.Duration {
		fc := NewFakeClock(time.Unix(0, 0))
		Retry(context.Background(), fc, RetryPolicy{Seed: 11, Attempts: 4}, func() error {
			return errors.New("always")
		})
		return fc.Slept
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("4 attempts should back off 3 times, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff %d: %v vs %v — jitter not deterministic", i, a[i], b[i])
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	boom := errors.New("boom")
	calls := 0
	retries, err := Retry(context.Background(), fc, RetryPolicy{Attempts: 3}, func() error {
		calls++
		return boom
	})
	if err != boom || calls != 3 || retries != 2 {
		t.Errorf("calls=%d retries=%d err=%v, want 3,2,boom", calls, retries, err)
	}
}

func TestRetryCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Retry(ctx, NewFakeClock(time.Unix(0, 0)), RetryPolicy{}, func() error {
		t.Fatal("f ran despite cancelled context")
		return nil
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestReadFramedTruncation(t *testing.T) {
	// Zero bytes: clean EOF.
	if _, err := ReadFramed(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream = %v, want io.EOF", err)
	}
	// Partial 4-byte length prefix: a cut, never EOF.
	if _, err := ReadFramed(bytes.NewReader([]byte{0, 0})); !errors.Is(err, ErrTruncated) {
		t.Errorf("partial header = %v, want ErrTruncated", err)
	}
	// Full header, short body.
	var buf bytes.Buffer
	WriteFramed(&buf, []byte("hello"))
	short := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFramed(bytes.NewReader(short)); !errors.Is(err, ErrTruncated) {
		t.Errorf("partial body = %v, want ErrTruncated", err)
	}
	// Intact frame still round-trips.
	pkt, err := ReadFramed(bytes.NewReader(buf.Bytes()))
	if err != nil || string(pkt) != "hello" {
		t.Errorf("round trip: %q, %v", pkt, err)
	}
}

func TestRTPGapReportedAndResynced(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		// AU "aa" (seqs 0,1), then a lost packet (seq 2 never sent),
		// then the tail of a broken AU (seq 3, marker) that must be
		// discarded, then a clean AU "dd" (seq 4, marker).
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 0, Payload: []byte("a")}))
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 1, Marker: true, Timestamp: 0, Payload: []byte("a")}))
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 3, Marker: true, Timestamp: 3000, Payload: []byte("x")}))
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 4, Marker: true, Timestamp: 6000, Payload: []byte("dd")}))
		c1.Close()
	}()
	recv := NewRTPReceiver(c2)
	au, err := recv.NextAccessUnit()
	if err != nil || string(au) != "aa" {
		t.Fatalf("first AU: %q, %v", au, err)
	}
	_, err = recv.NextAccessUnit()
	var gap *StreamGapError
	if !errors.As(err, &gap) {
		t.Fatalf("gap not reported: %v", err)
	}
	if gap.Missing != 1 || gap.From != 1 || gap.To != 3 {
		t.Errorf("gap = %+v, want 1 missing between 1 and 3", gap)
	}
	// The receiver must stay readable and deliver the next clean AU.
	au, err = recv.NextAccessUnit()
	if err != nil || string(au) != "dd" {
		t.Fatalf("post-gap AU: %q, %v", au, err)
	}
	if recv.LastTimestamp() != 6000 {
		t.Errorf("LastTimestamp = %d, want 6000", recv.LastTimestamp())
	}
	if _, err := recv.NextAccessUnit(); err != io.EOF {
		t.Errorf("end of stream = %v, want EOF", err)
	}
}

func TestRTPGapMidUnitSkipsToMarker(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		// Gap lands mid-unit: seq 0 lost, seqs 1 (no marker) and 2
		// (marker) are the rest of that broken AU, then a clean one.
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 1, Payload: []byte("b")}))
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 2, Marker: true, Payload: []byte("b")}))
		WriteFramed(c1, marshalRTP(&rtpPacket{Seq: 3, Marker: true, Payload: []byte("c")}))
		c1.Close()
	}()
	recv := NewRTPReceiver(c2)
	// First packet seeds the sequence space; a fresh receiver has no
	// baseline, so "bb" reassembles (packets 1,2 are consecutive).
	au, err := recv.NextAccessUnit()
	if err != nil || string(au) != "bb" {
		t.Fatalf("AU: %q, %v", au, err)
	}
	au, err = recv.NextAccessUnit()
	if err != nil || string(au) != "c" {
		t.Fatalf("AU: %q, %v", au, err)
	}
}

func TestServeRTPFaultCutSurfacesTruncation(t *testing.T) {
	enc := encodedFixture(t, 6)
	plan := &FaultPlan{Seed: 1, CutAtPacket: 3}
	addr, errc, err := ServeRTP(context.Background(), enc, nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	recv := NewRTPReceiver(conn)
	var rerr error
	for {
		if _, rerr = recv.NextAccessUnit(); rerr != nil {
			break
		}
	}
	recv.Close()
	if !errors.Is(rerr, ErrTruncated) {
		t.Errorf("receiver after cut = %v, want ErrTruncated", rerr)
	}
	if serr := <-errc; !errors.Is(serr, ErrFaultCut) {
		t.Errorf("sender joined with %v, want ErrFaultCut", serr)
	}
}

func TestServeRTPFaultScheduleDeterministic(t *testing.T) {
	enc := encodedFixture(t, 20)
	run := func() (aus, gaps, missing int) {
		plan := &FaultPlan{Seed: 99, Camera: "cam", DropRate: 0.15}
		addr, errc, err := ServeRTP(context.Background(), enc, nil, plan)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		recv := NewRTPReceiver(conn)
		for {
			_, err := recv.NextAccessUnit()
			if err == io.EOF {
				break
			}
			var gap *StreamGapError
			if errors.As(err, &gap) {
				gaps++
				missing += gap.Missing
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			aus++
		}
		recv.Close()
		if serr := <-errc; serr != nil {
			t.Fatalf("sender: %v", serr)
		}
		return
	}
	a1, g1, m1 := run()
	a2, g2, m2 := run()
	if a1 != a2 || g1 != g2 || m1 != m2 {
		t.Errorf("fault schedule not deterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, g1, m1, a2, g2, m2)
	}
	if g1 == 0 {
		t.Error("15%% drop over 20 AUs produced no gaps — faults not applied")
	}
}

func TestServeRTPZeroPlanIsTransparent(t *testing.T) {
	enc := encodedFixture(t, 5)
	addr, errc, err := ServeRTP(context.Background(), enc, nil, &FaultPlan{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	recv := NewRTPReceiver(conn)
	n := 0
	for {
		au, err := recv.NextAccessUnit()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(au, enc.Frames[n].Data) {
			t.Fatalf("AU %d altered by inactive plan", n)
		}
		n++
	}
	recv.Close()
	if serr := <-errc; serr != nil {
		t.Fatal(serr)
	}
	if n != 5 {
		t.Errorf("received %d AUs, want 5", n)
	}
}

func TestServeRTPCancelUnblocksAccept(t *testing.T) {
	enc := encodedFixture(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	_, errc, err := ServeRTP(ctx, enc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // nobody ever dials
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("server joined with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server goroutine stuck in Accept after cancel")
	}
}

func TestPumpVideoStallFault(t *testing.T) {
	enc := encodedFixture(t, 4)
	fc := NewFakeClock(time.Unix(0, 0))
	plan := &FaultPlan{Seed: 2, StallRate: 1, Stall: 30 * time.Millisecond}
	recv, errc := sendOverPipe(context.Background(), enc, fc, plan)
	for {
		if _, err := recv.NextAccessUnit(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	stalls := 0
	for _, d := range fc.Slept {
		if d == 30*time.Millisecond {
			stalls++
		}
	}
	if stalls != 4 {
		t.Errorf("injected %d stalls, want one per frame (4); slept %v", stalls, fc.Slept)
	}
}

// A reordered packet arrives after its successor: the successor opens
// one gap of one packet, and the late packet is dropped silently rather
// than read as a second, wrapped-around gap.
func TestRTPLatePacketIsNotAGap(t *testing.T) {
	enc := encodedFixture(t, 20)
	addr, errc, err := ServeRTP(context.Background(), enc, nil, &FaultPlan{Seed: 99, Camera: "cam", ReorderRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	recv := NewRTPReceiver(conn)
	defer recv.Close()
	var gaps []StreamGapError
	aus := 0
	for {
		_, err := recv.NextAccessUnit()
		if err == io.EOF {
			break
		}
		var gap *StreamGapError
		if errors.As(err, &gap) {
			gaps = append(gaps, *gap)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		aus++
	}
	if serr := <-errc; serr != nil {
		t.Fatalf("sender: %v", serr)
	}
	if len(gaps) != 1 || gaps[0].Missing != 1 || aus != 18 {
		t.Errorf("gaps %+v and %d access units, want one gap of 1 packet and 18", gaps, aus)
	}
}

func TestFrameIndexOfRoundTrip(t *testing.T) {
	for _, fps := range []int{15, 24, 30, 60} {
		for i := 0; i < 200; i++ {
			ts := uint32(uint64(i) * rtpClockRate / uint64(fps))
			if got := FrameIndexOf(ts, fps); got != i {
				t.Fatalf("fps=%d frame %d → ts %d → %d", fps, i, ts, got)
			}
		}
	}
}
