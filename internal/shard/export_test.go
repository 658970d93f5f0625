package shard

import "repro/internal/vdbms"

// SetNewSystem makes every coordinator and worker of this process build
// its engine with mk until the returned restore runs.
func SetNewSystem(mk func(SystemSpec) (vdbms.System, error)) (restore func()) {
	prev := newSystem
	newSystem = mk
	return func() { newSystem = prev }
}
