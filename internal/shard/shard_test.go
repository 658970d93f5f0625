package shard_test

import (
	"reflect"
	"testing"

	"repro/internal/queries"
	"repro/internal/shard"
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
