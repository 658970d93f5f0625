package vcd

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/queries"
	"repro/internal/vfs"
)

// TestOptionsWireRoundTrip: Options is its own wire form (the shard
// plane ships it to workers as JSON), so every field must survive a
// JSON round trip. The one exception is explicit: ResultStore stays at
// the coordinator. A field added without a working tag — or dropped
// with `json:"-"` — fails here instead of silently running workers
// under a different configuration than the coordinator merges against.
func TestOptionsWireRoundTrip(t *testing.T) {
	coordinatorOnly := map[string]bool{"ResultStore": true}

	var opt Options
	v := reflect.ValueOf(&opt).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice:
			f.Set(reflect.ValueOf([]queries.QueryID{queries.Q1, queries.Q7}))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Interface:
			f.Set(reflect.ValueOf(vfs.NewMemory()))
		default:
			t.Fatalf("Options.%s: kind %s has no sample value; teach this test one", v.Type().Field(i).Name, f.Kind())
		}
	}
	opt.Mode = StreamingMode // the non-zero mode

	data, err := json.Marshal(opt)
	if err != nil {
		t.Fatal(err)
	}
	var back Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	bv := reflect.ValueOf(back)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		got, want := bv.Field(i).Interface(), v.Field(i).Interface()
		switch {
		case coordinatorOnly[name]:
			if !bv.Field(i).IsZero() {
				t.Errorf("Options.%s crossed the wire; it is coordinator-side only", name)
			}
		case v.Field(i).IsZero():
			t.Errorf("Options.%s was left zero by the test; the round trip proves nothing for it", name)
		case !reflect.DeepEqual(got, want):
			t.Errorf("Options.%s dropped on the wire: sent %v, received %v (%s)", name, want, got, data)
		}
	}
}
