//go:build race

package video

// raceBuild poisons recycled frames (FramePool.Put) in race builds, so
// that a reader that kept a frame past PutFrame — a use-after-recycle no
// race detector sees when the reuse is on one goroutine — reads a
// constant instead of the pixels it expected, and a golden or the
// differential test fails.
const raceBuild = true
