package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestWireDeltaMergeMatchesCombinedRecording pins the property the
// shard coordinator depends on: recording a workload as one interval
// and recording it split across two deltas then merged must produce the
// same summarized telemetry (quantiles, counters, cache, pools).
func TestWireDeltaMergeMatchesCombinedRecording(t *testing.T) {
	// Spans time themselves, so synthesize two disjoint stage loads with
	// exact durations via RecordNS on the registry.
	st := &reg.stages[StageExecute]
	base := Capture()
	for i := 0; i < 40; i++ {
		st.lat.RecordNS(int64(i+1) * 1_000_000)
		st.vals[stageFrames].Add(3)
	}
	mid := Capture()
	for i := 0; i < 25; i++ {
		st.lat.RecordNS(int64(i+1) * 7_000_000)
		st.vals[stageBytes].Add(10)
	}
	end := Capture()

	whole := end.Delta(base)
	first := mid.Delta(base)
	second := end.Delta(mid)
	first.Merge(second)

	wholeT := whole.Telemetry()
	mergedT := first.Telemetry()
	// Wall time differs (merge takes the max of the two halves); the
	// stage record — quantiles included — must match exactly.
	if !reflect.DeepEqual(wholeT.Stages, mergedT.Stages) {
		t.Fatalf("merged stage telemetry diverges:\nwhole:  %+v\nmerged: %+v",
			wholeT.Stages, mergedT.Stages)
	}
	if !bytes.Equal(wholeT.Cache, mergedT.Cache) || !bytes.Equal(wholeT.FramePool, mergedT.FramePool) {
		t.Fatalf("merged counters diverge: %s %s vs %s %s", wholeT.Cache, wholeT.FramePool, mergedT.Cache, mergedT.FramePool)
	}
}

// TestWireDeltaJSONRoundTrip ensures the wire form survives the shard
// protocol's JSON framing without loss.
func TestWireDeltaJSONRoundTrip(t *testing.T) {
	d := WireDelta{WallNS: 12345}
	ws := &d.Stages[StageExecute]
	ws.Lat.Buckets[3], ws.Lat.Buckets[400], ws.Lat.Sum = 7, 1, 99
	ws.Scalars[stageFrames], ws.Scalars[stageBytes], ws.Scalars[stageWorkers] = 4, 2048, 3
	d.Scalars[CacheHits], d.Scalars[CacheMisses], d.Scalars[CacheRequested], d.Scalars[CacheDecoded] = 5, 2, 30, 45
	d.Scalars[OnlineFrames], d.Scalars[OnlineDropped] = 10, 1
	d.Errors = []string{"worker 2: boom"}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back WireDelta
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", d.Scalars, back.Scalars)
	}
}
