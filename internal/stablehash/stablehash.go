// Package stablehash is the repository's one stable 64-bit hash:
// FNV-1a-64 from any state, and the splitmix64 finalizer. Shard
// partitions, trace IDs, per-camera and per-query seeds, fault rolls and
// replica placement are functions of its outputs, so they never change.
package stablehash

const (
	// Offset is FNV-1a-64's offset basis: the state of an empty hash.
	Offset uint64 = 14695981039346656037
	// Prime is FNV-1a-64's multiplier.
	Prime uint64 = 1099511628211
	// MixMul is the splitmix64 finalizer's second multiplier, which the
	// renderer's lattice noise shares.
	MixMul uint64 = 0x94d049bb133111eb
)

// FNV continues the FNV-1a-64 state h over the bytes of s.
func FNV[S ~string | ~[]byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * Prime
	}
	return h
}

// String is the FNV-1a-64 hash of s.
func String(s string) uint64 { return FNV(Offset, s) }

// Mix is the splitmix64 finalizer: a bijection whose every output bit
// depends on every input bit.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * MixMul
	return z ^ (z >> 31)
}
