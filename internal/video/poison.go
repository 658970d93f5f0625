//go:build !race

package video

// raceBuild is false outside race builds: recycled frames keep their
// samples (poison_race.go).
const raceBuild = false
