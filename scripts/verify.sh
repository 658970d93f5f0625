#!/bin/sh
# Verify recipe: vet, build, full test suite, then the race detector on
# the packages with real concurrency (worker pool, parallel generation,
# row-parallel encoder, concurrent query batches, frame-parallel
# operators, and the interval-keyed range decode cache — single-flight
# fills, window coalescing, and pinned-window eviction are all
# exercised under -race via ./internal/vcd).
set -eux

go vet ./...
go build ./...
go test ./...
go test -race ./internal/parallel ./internal/vcg ./internal/codec ./internal/vcd ./internal/queries ./internal/metrics ./internal/stream
go test -race -run 'TestDecodedCache|TestRunRangeDecodeEquivalence' ./internal/vcd
# Online-mode resilience under the race detector: every RunOnline exit
# path (success, cancel, timeout, decode error, connection cut) must
# leave the goroutine count where it started, and seeded fault schedules
# must reproduce exactly.
go test -race -run 'TestRunOnline|TestPipeWriteCloseWriteRace|TestServeRTPFault' ./internal/vcd ./internal/stream
# Observability invariants under the race detector: lock-free histogram
# merges stay lossless, span aggregation stays atomic, and telemetry
# counts match between sequential and 8-way runs.
go test -race -run 'TestHistogramMergeConcurrent|TestSpanConcurrentAggregation|TestScalarTable|FuzzWireDelta' ./internal/metrics
go test -race -run 'TestTelemetryModeInvariance' ./internal/vcd
# Codec hot-path exactness and robustness: the golden corpus pins
# byte-identity of the word-at-a-time entropy I/O and butterfly
# transform against the reference formulation, and
# TestDecodeRequestIdentity holds the one decode path to that decode at
# every window, tile set and worker count (FuzzDecodeRequest's seeds —
# arbitrary requests — are among the ^Fuzz seeds);
# the fuzz seed corpora run as ordinary tests (go test executes every
# f.Add seed); the allocation pins guard the pooled steady state; the
# encoder's analysis-pass kernels (SWAR SAD, pruned motion search, zero-
# block certificates — FuzzQuantizeZeroBlock is among the ^Fuzz seeds)
# must reach the decisions of the reference formulas.
go test -race -run 'TestGoldenBitstreams|TestDecodeRequestIdentity|^Fuzz|StateAllocs$|TestSADMatchesReference|TestMotionSearchDecisionIdentical' ./internal/codec ./internal/container
# One decode loop (DESIGN.md §5.6): the sub-GOP path — a second parser,
# a second reconstructor, a clip-sized symbol pool, its two stages and
# the parallel span reader that fed it — stays deleted, and
# Decoder.Decode is the only reader of a frame header.
if grep -rnE 'decodeSubGOP|parseAU|auSyms|mbsPool|ExtractSpanParallel|StageEntropy|StageTransform' --include='*.go' --exclude='*_test.go' cmd internal; then
	echo "verify: the deleted sub-GOP decode path is back (see above); DecodeRequest's (tile × GOP chain) loop is the one route from access units to frames" >&2
	exit 1
fi
if [ "$(grep -rn 'readFrameHeader(' --include='*.go' --exclude='*_test.go' internal/codec | wc -l)" -ne 2 ]; then
	echo "verify: want readFrameHeader defined once and called once (Decoder.Decode) — a second caller is a second bitstream parser" >&2
	exit 1
fi
# The same identity suites with the scheduler pinned to one thread: the
# row-parallel analysis pass, tile-parallel encode and the decode
# request's worker pool must not depend on real parallelism to be
# bit-identical.
GOMAXPROCS=1 go test -run 'TestGoldenBitstreams|TestParallelMEBitstreamIdentical|TestTileStitchIdentity|TestTiledEncodeDeterministicAcrossWorkers' ./internal/codec
GOMAXPROCS=1 go test -run 'TestDecodeRequestIdentity|FuzzDecodeRequest' ./internal/codec
# Tiled spatial decode under the race detector: tile-parallel
# reconstruction must stitch byte-identically to the full-frame decode
# at every worker count and grid, the driver-level equivalence test
# exercises the tile-keyed decoded cache (mask-scoped windows,
# full-frame supersets serving tile requests), and FuzzTileIndex's seed
# corpus pins that corrupt per-tile offset tables error cleanly.
go test -race -run 'TestTileStitchIdentity|TestTiledEncodeDeterministicAcrossWorkers|TestRunTileDecodeEquivalence|TestDatasetDecodedTiles|FuzzTileIndex' ./internal/codec ./internal/container ./internal/vcd
# Sharded execution plane under the race detector: coordinator reader
# goroutines, heartbeaters, and in-process pipe workers all interleave;
# the equivalence test then asserts the deterministic-merge contract —
# sharded output byte-identical to the single-process run at shards
# {1,2,4} and under a deterministically killed worker.
go test -race ./internal/shard
go test -race -run 'TestShardEquivalence|TestShardWorkerDeathRecovers' ./internal/shard
# Worker-server lifecycle under the race detector: serve/close cycles
# must leak no ctx-watcher goroutines, a half-open coordinator must be
# dropped by the first-frame deadline without wedging the accept loop,
# and a SIGTERM'd -shard-worker (the one runner every binary shares)
# must drain cleanly. internal/cli also pins every binary's flag
# surface against the goldens (TestFlagSurface).
go test -race -run 'TestWorkerServer' ./internal/shard
go test -race ./internal/cli ./cmd/...
# One run configuration (DESIGN.md §5.14): the mirrors stay deleted. A
# second spelling of the run options, or a per-binary copy of a helper
# whose job internal/cli owns, fails here.
if grep -rnE 'OptionsWire|QueryWorkers|QuerySequential' --include='*.go' --exclude='*_test.go' cmd internal; then
	echo "verify: a deleted configuration mirror is back (see above)" >&2
	exit 1
fi
if grep -rnE '^func (\([^)]*\) )?(splitAddrs|closeDebug)\(' --include='*.go' --exclude='*_test.go' cmd internal; then
	echo "verify: internal/cli owns address parsing (Shard.Addrs) and the debug-server exit path (Obs.Exit); use them" >&2
	exit 1
fi
# One scalar table (DESIGN.md §5.7 item 3): a metric is named in
# internal/metrics/scalars.go (the histogram family and the enabled
# gauge in prom.go) and nowhere else, and the per-field mirrors stay
# deleted.
if grep -rnE '"vr_[a-z_]+"' --include='*.go' --exclude='*_test.go' cmd internal | grep -vE '^internal/metrics/(scalars|prom)\.go:'; then
	echo "verify: a Prometheus name outside the scalar table (see above); add a row to internal/metrics/scalars.go" >&2
	exit 1
fi
if grep -nE '"vr_[a-z_]+"' internal/metrics/prom.go | grep -vE '"vr_(metrics_enabled|stage_seconds(_bucket|_sum|_count)?)"'; then
	echo "verify: prom.go names only the enabled gauge and the stage histogram family; everything else is a table row" >&2
	exit 1
fi
if grep -rnE 'GlobalCacheCounters|GlobalShardCounters|GlobalOnlineCounters|ShardTelemetry|OnlineTelemetry|CacheTelemetry|FramePoolWire|func add(Cache|Online|Shard)' --include='*.go' --exclude='*_test.go' cmd internal; then
	echo "verify: a deleted per-field metrics mirror is back (see above); the scalar table replaces it" >&2
	exit 1
fi
# The generator under the race detector (DESIGN.md §5.15): each
# generate worker keeps one renderer from camera to camera, so which
# renderer — holding which camera's static layer — meets a camera now
# depends on scheduling; TestWorkerCountDoesNotChangeBytes under -race
# is the test that layer invalidation is right (-short: the oracle
# corpus is single-threaded, a quarter of it is enough under the race
# detector's tenfold slowdown). The identity suites run again, whole,
# with the scheduler pinned to one thread.
go test -race -short ./internal/render ./internal/vcg
GOMAXPROCS=1 go test -run 'TestRenderMatchesOracle|TestWorkerCountDoesNotChangeBytes' ./internal/render ./internal/vcg
# One renderer in the product: the renderer that derived every pixel of
# every frame survives only as the test oracle.
if grep -rn 'oracleRenderer' --include='*.go' --exclude='*_test.go' cmd internal; then
	echo "verify: the oracle renderer belongs in _test.go files only (see above)" >&2
	exit 1
fi
if [ "$(grep -rn 'func .*drawGroundAndSky(' --include='*.go' --exclude='*_test.go' cmd internal | wc -l)" -ne 1 ]; then
	echo "verify: want exactly one drawGroundAndSky in non-test Go — the static layer's builder, not a second per-frame path" >&2
	exit 1
fi
# Benchmark-as-a-service control plane under the race detector: the
# executor, per-tenant admission, cancellation plumbing, and restart
# recovery interleave with HTTP handlers; the end-to-end test asserts
# the daemon's persisted report is byte-identical (canonical form) to a
# direct shard run of the same plan against the same worker pool.
go test -race ./internal/serve
# The benchmark (bench/, a module of its own that the root's ./... does
# not descend into) must build and its smoke test — every workload once,
# end to end and traced — must pass, so the ruler cannot rot between the
# PRs that use it. `bash bench/run.sh` is the measuring run; see
# bench/README.md.
(cd bench && go vet ./... && go test ./...)
