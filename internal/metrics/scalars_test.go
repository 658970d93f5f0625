package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/video"
)

// jsonKeys lists the json tag names of a struct type's fields of one
// kind in declaration order, embedded structs flattened.
func jsonKeys(typ reflect.Type, of reflect.Kind) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case f.Anonymous:
			keys = append(keys, jsonKeys(f.Type, of)...)
		case f.Type.Kind() == of:
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			keys = append(keys, name)
		}
	}
	return keys
}

var kindNames = [...]string{counter: "counter", gauge: "gauge", peak: "peak"}

// sectionKeys are the Telemetry JSON member names of the groups that
// have a section: the json tags of Telemetry's section fields, which
// are declared in group order.
var sectionKeys = jsonKeys(reflect.TypeOf(Telemetry{}), reflect.Slice)[:groupSelf]

// groupKeys lists the JSON keys of group g's rows in table order.
func groupKeys(g group) []string {
	var keys []string
	for _, row := range table {
		if row.group == g {
			keys = append(keys, row.key)
		}
	}
	return keys
}

// TestScalarTable walks the table instead of hand-picked fields: the
// names every rendering uses are unique and well-formed, every row
// survives Capture → Delta → JSON → Merge → Telemetry → JSON and the
// Prometheus exposition, each kind's law holds for each row, the typed
// structs that survive are held to their rows, and README's metrics
// reference is the table.
func TestScalarTable(t *testing.T) {
	promName := regexp.MustCompile(`^vr_[a-z_]+$`)
	jsonKey := regexp.MustCompile(`^[a-z_]+$`)
	proms := map[string]bool{"vr_metrics_enabled": true, "vr_stage_seconds": true}
	checkRow := func(where string, row scalar, keys map[string]bool) {
		t.Helper()
		if row.help == "" {
			t.Errorf("%s: no help text", where)
		}
		if row.prom != "" {
			if !promName.MatchString(row.prom) || proms[row.prom] {
				t.Errorf("%s: Prometheus name %q is malformed or taken", where, row.prom)
			}
			if (row.kind == counter) != strings.HasSuffix(row.prom, "_total") {
				t.Errorf("%s: %q: exactly the counters end in _total", where, row.prom)
			}
			proms[row.prom] = true
		}
		if row.key != "" {
			if !jsonKey.MatchString(row.key) || keys[row.key] {
				t.Errorf("%s: JSON key %q is malformed or taken within its section", where, row.key)
			}
			keys[row.key] = true
		}
	}
	groupKeysSeen := [numGroups]map[string]bool{}
	for g := range groupKeysSeen {
		groupKeysSeen[g] = map[string]bool{}
	}
	last := group(0)
	for id, row := range table {
		where := fmt.Sprintf("row %d (%s)", id, row.prom)
		checkRow(where, row, groupKeysSeen[row.group])
		if row.prom == "" {
			t.Errorf("%s: every process-level row is exported", where)
		}
		if (row.key == "") != (row.group == groupSelf) {
			t.Errorf("%s: a row has a JSON key exactly when its group has a section", where)
		}
		if row.group != last && len(groupKeysSeen[row.group]) > 1 {
			t.Errorf("%s: the rows of a group must be contiguous", where)
		}
		last = row.group
	}
	stageKeys := map[string]bool{}
	for sid, row := range stageTable {
		checkRow(fmt.Sprintf("stage row %d", sid), row, stageKeys)
	}
	for _, r := range ratios {
		if !jsonKey.MatchString(r.key) || groupKeysSeen[r.group][r.key] {
			t.Errorf("ratio %q is malformed or collides with a row of its section", r.key)
		}
	}

	// The typed structs that survive, held to their rows.
	if got, want := jsonKeys(reflect.TypeOf(CacheStats{}), reflect.Int64), groupKeys(groupCache); !reflect.DeepEqual(got, want) {
		t.Errorf("CacheStats fields %v, cache rows %v", got, want)
	}
	if CacheHits+Scalar(len(groupKeys(groupCache)))-1 != CacheDecoded {
		t.Errorf("the cache rows are not CacheHits..CacheDecoded")
	}
	var probe CacheStats
	for i, f := range probe.fields() {
		*f = int64(i + 1)
	}
	if (probe != CacheStats{Hits: 1, Misses: 2, Evictions: 3, FramesRequested: 4, FramesDecoded: 5}) {
		t.Errorf("CacheStats.fields() is not in declaration order: %+v", probe)
	}
	const cacheReport = `{"hits":3,"misses":1,"evictions":0,"frames_requested":4,"frames_decoded":6,"hit_rate":0.75,"decode_ratio":1.5}`
	if got := (CacheStats{Hits: 3, Misses: 1, FramesRequested: 4, FramesDecoded: 6}).Report(); string(got) != cacheReport {
		t.Errorf("CacheStats.Report() = %s, want the cache section %s", got, cacheReport)
	}
	var stageRowKeys []string
	for _, row := range stageTable {
		stageRowKeys = append(stageRowKeys, row.key)
	}
	if got := jsonKeys(reflect.TypeOf(StageTelemetry{}), reflect.Int64); !reflect.DeepEqual(got[1:], stageRowKeys) || got[0] != "count" {
		t.Errorf("StageTelemetry int64 fields %v, want count then the stage rows %v", got, stageRowKeys)
	}

	// Every row through every rendering, and its kind's law.
	section := func(t *testing.T, tele Telemetry, g group) map[string]json.Number {
		t.Helper()
		raw, err := json.Marshal(tele)
		if err != nil {
			t.Fatal(err)
		}
		var back Telemetry
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(raw, again) {
			t.Errorf("Telemetry JSON does not round-trip (%v):\n%s\n%s", err, raw, again)
		}
		var members map[string]json.RawMessage
		if err := json.Unmarshal(raw, &members); err != nil {
			t.Fatal(err)
		}
		var out map[string]json.Number
		if err := json.Unmarshal(members[sectionKeys[g]], &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for id, row := range table {
		id, row := Scalar(id), row
		t.Run(row.prom, func(t *testing.T) {
			var prev, cur Snapshot
			prev.vals[id], cur.vals[id] = 5, 12
			d := cur.Delta(prev)
			want := map[kind]int64{counter: 7, gauge: 12, peak: 12}[row.kind]
			if d.Scalars[id] != want {
				t.Fatalf("Delta = %d, want %d for a %s", d.Scalars[id], want, kindNames[row.kind])
			}
			raw, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			var back WireDelta
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if back.Scalars != d.Scalars {
				t.Fatalf("wire round trip lost the row: %s", raw)
			}
			var other WireDelta
			other.Scalars[id] = 4
			d.Merge(other)
			want = map[kind]int64{counter: 11, gauge: 16, peak: 12}[row.kind]
			if d.Scalars[id] != want {
				t.Fatalf("Merge = %d, want %d for a %s", d.Scalars[id], want, kindNames[row.kind])
			}
			if row.key != "" {
				if got := section(t, d.Telemetry(), row.group)[row.key]; got.String() != fmt.Sprint(want) {
					t.Fatalf("Telemetry JSON has %s.%s = %q, want %d", sectionKeys[row.group], row.key, got, want)
				}
			}

			// Live: a recording lands in Capture and in the exposition.
			// (Rows copied in from elsewhere are driven below.)
			before := Capture().vals[id]
			reg.vals[id].Add(3)
			defer reg.vals[id].Add(-3)
			after := Capture().vals[id]
			copied := after == before
			if copied != (row.group == groupFramePool || row.group == groupSelf) {
				t.Fatalf("Capture moved the row by %d after a live +3", after-before)
			}
			var buf strings.Builder
			WriteProm(&buf)
			sample := fmt.Sprintf("# TYPE %s %s\n%s %d\n", row.prom, promTypes[row.kind], row.prom, after)
			if !copied && !strings.Contains(buf.String(), sample) {
				t.Fatalf("exposition lacks %q", sample)
			}
		})
	}

	// The copied-in rows follow their sources.
	withMetrics(t)
	base := Capture()
	pool := video.NewFramePool(8, 8)
	pool.Put(pool.Get())
	RecordEvent(Event{Kind: EventJobSubmitted})
	recordTraceSpan(TraceSpan{Trace: 1, Stage: "x"})
	RecordError("test", fmt.Errorf("boom"))
	moved := Capture().Delta(base).Scalars
	for _, id := range []Scalar{framePoolGets, framePoolPuts, framePoolAllocs, eventsTotal, traceSpansTotal, telemetryErrors} {
		if moved[id] != 1 {
			t.Errorf("%s moved by %d, want 1", table[id].prom, moved[id])
		}
	}

	// The stage rows: the same laws, per stage.
	for sid, row := range stageTable {
		var prev, cur Snapshot
		prev.stages[StageDecode].Scalars[sid], cur.stages[StageDecode].Scalars[sid] = 5, 12
		cur.stages[StageDecode].Lat.Buckets[20] = 1
		d := cur.Delta(prev)
		var other WireDelta
		other.Stages[StageDecode].Scalars[sid] = 4
		d.Merge(other)
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back WireDelta
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		want := map[kind]int64{counter: 11, peak: 12}[row.kind]
		if got := back.Stages[StageDecode].Scalars[sid]; got != want {
			t.Errorf("stage row %s: %d after Delta, Merge and the wire, want %d", row.key, got, want)
		}
		tele, err := json.Marshal(back.Telemetry().Stage(StageDecode))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(tele), fmt.Sprintf(`"%s":%d`, row.key, want)) {
			t.Errorf("stage row %s missing from %s", row.key, tele)
		}
	}

	// README's metrics reference is generated from the table.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const open, close = "<!-- metrics-table:begin -->\n", "<!-- metrics-table:end -->"
	_, rest, ok1 := strings.Cut(string(readme), open)
	have, _, ok2 := strings.Cut(rest, close)
	if want := metricsTable(); !ok1 || !ok2 || have != want {
		t.Errorf("README's metrics reference is not the scalar table; it should read:\n%s", want)
	}
}

// metricsTable renders the README metrics reference.
func metricsTable() string {
	var b strings.Builder
	b.WriteString("| Section | JSON key | Prometheus name | Kind | Meaning |\n|---|---|---|---|---|\n")
	line := func(section string, row scalar) {
		cell := func(s string) string {
			if s == "" {
				return "—"
			}
			return "`" + s + "`"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", cell(section), cell(row.key), cell(row.prom), kindNames[row.kind], row.help)
	}
	for _, row := range table {
		line(append(sectionKeys, "")[row.group], row)
	}
	for _, row := range stageTable {
		line("stages.<stage>", row)
	}
	return b.String()
}

func hist(ns ...int64) HistogramSnapshot {
	var h Histogram
	for _, v := range ns {
		h.RecordNS(v)
	}
	return h.Snapshot()
}

func steps(n int, step int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i+1) * step
	}
	return out
}

func stage(lat HistogramSnapshot, frames, bytes, hits, misses, workers int64) WireStage {
	return WireStage{Lat: lat, Scalars: stageValues{frames, bytes, hits, misses, workers}}
}

func setRows(v *values, first Scalar, vals ...int64) {
	for i, x := range vals {
		v[first+Scalar(i)] = x
	}
}

// goldenInterval is the fixed synthetic interval behind the serialized-
// form goldens: a coordinator's own delta with cache, online, shard and
// frame-pool activity ("run"), the same merged with a remote worker's
// delta off the wire ("merged"), and an empty one ("idle").
// testdata/telemetry.json was captured from the commit before the scalar
// table existed, from the same numbers written into its per-field
// structs.
func goldenInterval(t *testing.T) map[string]Telemetry {
	t.Helper()
	withMetrics(t)
	t0 := time.Unix(1700000000, 0)
	var prev, cur Snapshot
	prev.captured, cur.captured = t0, t0.Add(1500*time.Millisecond)
	prev.stages[StageDecode] = stage(hist(1e6, 2e6, 3e6), 30, 0, 1, 2, 2)
	cur.stages[StageDecode] = stage(hist(append([]int64{1e6, 2e6, 3e6}, steps(40, 500_000)...)...), 430, 0, 25, 18, 8)
	cur.stages[StageExecute] = stage(hist(steps(25, 7_000_000)...), 600, 123456, 0, 0, 8)
	cur.stages[StageShardGather] = stage(hist(5e6, 6e6, 9e6, 250e6), 0, 0, 0, 0, 0)
	prev.stages[StageResultEncode] = stage(hist(4e6), 12, 99, 0, 0, 0)
	cur.stages[StageResultEncode] = prev.stages[StageResultEncode]
	setRows(&prev.vals, poolActive, 0, 0, 4, 0, 8, 0, 1<<20, 2<<20, 0, 1)
	setRows(&cur.vals, poolActive, 1, 3, 8, 8, 16, 2, 5<<20, 6<<20, 2, 4)
	setRows(&prev.vals, CacheHits, 10, 5, 1, 300, 200)
	setRows(&cur.vals, CacheHits, 85, 30, 4, 2300, 900)
	setRows(&prev.vals, framePoolGets, 100, 90, 20)
	setRows(&cur.vals, framePoolGets, 1100, 1000, 120)
	setRows(&cur.vals, OnlineFrames, 240, 7, 3, 2, 1, 1)
	setRows(&cur.vals, ShardWorkerFailures, 1, 1, 2, 5, 1, 3)
	run := cur.Delta(prev)
	run.Errors = []string{"parallel: panic: boom"}

	var wprev, wcur Snapshot
	wprev.captured, wcur.captured = t0, t0.Add(1200*time.Millisecond)
	wcur.stages[StageDecode] = stage(hist(steps(10, 3_000_000)...), 100, 0, 4, 6, 3)
	wcur.stages[StageValidate] = stage(hist(steps(6, 11_000_000)...), 60, 0, 0, 0, 0)
	setRows(&wcur.vals, poolActive, 0, 0, 3, 4, 4, 1, 1<<20, 9<<20, 0, 2)
	setRows(&wcur.vals, CacheHits, 4, 6, 0, 100, 130)
	setRows(&wcur.vals, framePoolGets, 50, 50, 50)
	wcur.vals[ShardConvFailures] = 2
	worker := wcur.Delta(wprev)
	worker.Errors, worker.ErrorsDropped = []string{"worker 1: <decode> failed & gave up"}, 3
	raw, err := json.Marshal(worker)
	if err != nil {
		t.Fatal(err)
	}
	var offWire WireDelta
	if err := json.Unmarshal(raw, &offWire); err != nil {
		t.Fatal(err)
	}
	merged := run
	merged.Merge(offWire)

	idle := Snapshot{captured: t0}
	return map[string]Telemetry{"run": run.Telemetry(), "merged": merged.Telemetry(), "idle": idle.Delta(idle).Telemetry()}
}

// updateGolden rewrites report.txt and prom.txt (the repo's -update
// convention; see internal/codec/golden_test.go):
//
//	go test ./internal/metrics -run TestSerializedFormGoldens -update
//
// telemetry.json pins the form from before the table and is never
// rewritten.
var updateGolden = flag.Bool("update", false, "rewrite testdata/report.txt and testdata/prom.txt")

// golden compares got with testdata/name.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *updateGolden && name != "telemetry.json" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n%s", name, got)
	}
}

// TestSerializedFormGoldens pins the three renderings people and
// scrapers read: the Telemetry JSON (byte-identical to the form before
// the table), the -report text, and the exposition's names, types, help
// strings and order.
func TestSerializedFormGoldens(t *testing.T) {
	tele := goldenInterval(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tele); err != nil {
		t.Fatal(err)
	}
	golden(t, "telemetry.json", buf.String())

	// The report reads the serialized sections, so a record that has been
	// through JSON (a stored job report, a -metrics-json artifact) prints
	// as the one that was encoded.
	var stored map[string]Telemetry
	if err := json.Unmarshal(buf.Bytes(), &stored); err != nil {
		t.Fatal(err)
	}
	var rep, again strings.Builder
	for _, name := range []string{"run", "merged", "idle"} {
		rep.WriteString("== " + name + "\n")
		tele[name].WriteTable(&rep)
		again.WriteString("== " + name + "\n")
		stored[name].WriteTable(&again)
	}
	golden(t, "report.txt", rep.String())
	if again.String() != rep.String() {
		t.Errorf("the report of the decoded records differs:\n%s", again.String())
	}

	var prom, blank strings.Builder
	WriteProm(&prom)
	for _, line := range strings.Split(strings.TrimSuffix(prom.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			blank.WriteString(line + "\n")
		case strings.Contains(line, "{"):
			// Labelled (per-stage) samples depend on which stages the
			// process has touched; their families' HELP/TYPE lines are
			// pinned above them.
		default:
			name, _, _ := strings.Cut(line, " ")
			blank.WriteString(name + "\n")
		}
	}
	golden(t, "prom.txt", blank.String())
}

// badBucketFrame is a worker summary's telemetry with a bucket index
// one past the histogram layout: before the sparse histogram validated
// what it decodes, merging it panicked the coordinator.
const badBucketFrame = `{"stages":{"decode":{"lat":{"488":1}}}}`

func TestWireDeltaRejectsForeignInput(t *testing.T) {
	for _, frame := range []string{
		badBucketFrame,
		`{"stages":{"decode":{"lat":{"-1":1}}}}`,
		`{"stages":{"decode":{"lat":{"3":-5}}}}`,
		`{"stages":{"no.such.stage":{"lat":{"3":1}}}}`,
		`{"stages":{"codec.entropy":{"lat":{"3":1}}}}`, // a stage only older builds record
		`{"stages":{"decode":{"scalars":{"no_such_row":1}}}}`,
		`{"scalars":{"vr_no_such_total":1}}`,
		`{"scalars":{"vr_pool_busy":1.5}}`,
		`{"scalars":[1,2,3]}`,
	} {
		var d WireDelta
		if err := json.Unmarshal([]byte(frame), &d); err == nil {
			t.Errorf("%s decoded without error", frame)
		}
	}
}

// TestWireDeltaIsKeyedByName: coordinator and workers may be different
// builds (-shard-addrs workers are long-lived daemons), so nothing on
// the wire is positional. Rows land by name in any order, and a sender
// whose table lacks rows this build has leaves them at zero.
func TestWireDeltaIsKeyedByName(t *testing.T) {
	const older = `{"scalars":{"vr_decoded_cache_misses_total":2,"vr_pool_busy_peak":7,"vr_decoded_cache_hits_total":5},
		"stages":{"execute":{"scalars":{"workers_seen":3,"frames":9},"lat":{"sum_ns":40,"12":2}}}}`
	var d WireDelta
	if err := json.Unmarshal([]byte(older), &d); err != nil {
		t.Fatal(err)
	}
	var want WireDelta
	want.Scalars[CacheHits], want.Scalars[CacheMisses], want.Scalars[poolBusyPeak] = 5, 2, 7
	ws := &want.Stages[StageExecute]
	ws.Scalars[stageFrames], ws.Scalars[stageWorkers], ws.Lat.Buckets[12], ws.Lat.Sum = 9, 3, 2, 40
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("decoded %+v", d.Scalars)
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for id, row := range table {
		if named := strings.Contains(string(raw), `"`+row.prom+`"`); named != (d.Scalars[id] != 0) {
			t.Errorf("%s on the wire: %v, value %d — exactly the non-zero rows travel, under their names", row.prom, named, d.Scalars[id])
		}
	}
}

// FuzzWireDelta: whatever a worker sends as its summary telemetry, the
// coordinator's handling of it — decode, merge into its own non-empty
// delta, summarize, serialize — fails cleanly or succeeds, never panics.
func FuzzWireDelta(f *testing.F) {
	f.Add([]byte(badBucketFrame))
	f.Add([]byte(`{"telemetry":{"stages":[{"stage":"x","buckets":[{"i":488,"n":1}]}]}}`))
	f.Add([]byte(`{"stages":{"decode":{"lat":{"sum_ns":9,"487":9223372036854775807,"3":9223372036854775807},"scalars":{"frames":-1,"workers_seen":9223372036854775807}}}}`))
	f.Add([]byte(`{"wall_ns":-1,"scalars":{"vr_pool_busy":-9,"vr_pool_busy_peak":-9223372036854775808,"vr_decoded_cache_hits_total":9223372036854775807,"vr_frame_pool_gets_total":-4},"errors":["a","b"],"errors_dropped":-3}`))
	var own Snapshot
	own.stages[StageDecode] = stage(hist(1e6, 2e6), 10, 0, 1, 1, 2)
	own.vals[CacheHits] = 3
	seed, err := json.Marshal(own.Delta(Snapshot{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var in WireDelta
		if json.Unmarshal(data, &in) != nil {
			return
		}
		d := own.Delta(Snapshot{})
		d.Merge(in)
		var sink strings.Builder
		tele := d.Telemetry()
		tele.WriteTable(&sink)
		if _, err := json.Marshal(tele); err != nil {
			t.Fatalf("merged telemetry does not serialize: %v", err)
		}
	})
}
