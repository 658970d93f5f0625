package shard

import (
	"fmt"

	"repro/internal/queries"
	"repro/internal/stablehash"
)

// Partitioning is a pure function of the instance key and the shard
// count — never of arrival order, worker identity, or timing — so the
// same (seed, config, shards) always produces the same assignment and
// a killed worker's shard can be re-dispatched elsewhere without
// changing what any instance computes.

// instanceKey names one batch instance for partitioning. The global
// index is part of the key (instances of a query are distinguished only
// by position; parameters are derived from the same index sequence on
// every node).
func instanceKey(q queries.QueryID, idx int) string {
	return fmt.Sprintf("%s#%04d", q, idx)
}

// shardOf maps one instance to its home shard.
func shardOf(q queries.QueryID, idx, shards int) int {
	if shards <= 1 {
		return 0
	}
	// FNV-1a through the splitmix64 finalizer, for avalanche on short
	// keys.
	return int(stablehash.Mix(stablehash.String(instanceKey(q, idx))) % uint64(shards))
}

// Partition splits the global indices [0, n) of query q across shards.
// The result is index-sorted per shard; shards may be empty when n is
// small.
func Partition(q queries.QueryID, n, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	parts := make([][]int, shards)
	for idx := 0; idx < n; idx++ {
		s := shardOf(q, idx, shards)
		parts[s] = append(parts[s], idx)
	}
	return parts
}
