package shard_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/vcd"
	"repro/internal/vfs"
)

// TestPartitionStable pins the partitioning contract: a permutation-free
// function of (query, index, shard count) — every index lands in exactly
// one shard, assignments are identical across calls, and they do not
// depend on instance arrival order (the hash keys on identity alone).
func TestPartitionStable(t *testing.T) {
	const n = 40
	for _, shards := range []int{1, 2, 3, 4, 7} {
		a := shard.Partition(queries.Q3, n, shards)
		b := shard.Partition(queries.Q3, n, shards)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: partition not stable", shards)
		}
		if len(a) != shards {
			t.Fatalf("shards=%d: %d parts", shards, len(a))
		}
		seen := map[int]int{}
		for s, part := range a {
			for _, idx := range part {
				if prev, dup := seen[idx]; dup {
					t.Fatalf("shards=%d: index %d in shards %d and %d", shards, idx, prev, s)
				}
				seen[idx] = s
			}
		}
		if len(seen) != n {
			t.Fatalf("shards=%d: %d of %d indices assigned", shards, len(seen), n)
		}
	}
	// Different queries spread differently (the hash keys on the query).
	q3 := shard.Partition(queries.Q3, n, 4)
	q5 := shard.Partition(queries.Q5, n, 4)
	if reflect.DeepEqual(q3, q5) {
		t.Error("partition ignores the query identity")
	}
}

// TestRunRefusesOnline: Options.Online does not cross the wire, so the
// coordinator refuses a run that sets it rather than let its workers
// run the batch offline.
func TestRunRefusesOnline(t *testing.T) {
	_, _, err := shard.Run(context.Background(), shard.Plan{
		Store:  vfs.NewMemory(),
		System: shard.SystemSpec{Name: "lightdblike"},
		Scale:  1,
		Opt:    vcd.Options{Mode: vcd.StreamingMode, Online: &vcd.OnlineOptions{}},
	}, shard.Options{Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "online") {
		t.Errorf("online run on the shard plane: err = %v", err)
	}
}
