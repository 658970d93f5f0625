#!/bin/sh
# Verify recipe: vet, build, the full test suite, the race detector over
# the whole module, the identity suites with the scheduler pinned to one
# thread, the guards that keep deleted code deleted, the kernel, encode
# and decode-stream benchmarks once, the result-writer and decode-ahead suites across
# -cpu 1,2,4, and the benchmark module's own vet and smoke test.
set -eux

go vet ./...
go build ./...
go test ./...
# The race detector over every package (ROADMAP: "-race over the whole
# module"; ≈2¼ min on 2 CPUs). What interleaves: the worker pool and
# parallel generation, the row- and tile-parallel encoder, the decode
# request's worker pool, concurrent query batches over the shared
# decoded cache (single-flight fills, window coalescing, pinned-window
# eviction), every RunOnline exit path, the lock-free metrics registry
# and its one ring, the shard plane (coordinator readers, heartbeaters,
# pipe workers, worker-server lifecycle, a SIGTERM'd -shard-worker), the
# vrserved control plane (executor, admission, cancellation, restart
# recovery; concurrent jobs keeping their own traces), and internal/cli
# building and running every binary (TestFlagSurface,
# TestOneReportSchema). Fuzz seed corpora run as ordinary tests.
# internal/render goes separately and -short: its oracle corpus is
# single-threaded and takes > 3 min whole under the detector's tenfold
# slowdown; a quarter of it is enough there (≈50 s).
go test -race $(go list ./... | grep -v /internal/render)
go test -race -short ./internal/render
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
# One route from bitstream to residual (DESIGN.md §5.9 item 2): the
# decoder reads each block with decodeResidual, levels straight into
# dequantized coefficients. The two-step form it replaced — a level array
# filled by decodeBlock, scanned again by dequantizeBlock — is the tests'
# reference, and stays out of the decode loop. The tests that hold the
# fused path to it run on one thread too, and the decode loop's benchmark
# runs once so that it cannot rot.
if grep -nE '(decodeBlock|dequantizeBlock)\(' internal/codec/decoder.go internal/codec/tile.go; then
	echo "verify: the decoder fills a level array again (see above); decodeResidual is the one route from bitstream to residual" >&2
	exit 1
fi
GOMAXPROCS=1 go test -run 'TestDecodeResidualMatchesReference|TestDecodeErrorIdentity|TestIDCTHalfIntegers|TestCertifiedRoundingMatchesPerSample|FuzzDecodeFrame' ./internal/codec
go test -run '^$' -bench 'DecodeStream' -benchtime 1x ./internal/codec
# One route from residual to bitstream (DESIGN.md §5.9 item 4): the
# encoder's block is quantizeResidual's nonzero mask — levels written at
# its set bits only, the reconstruction taken from the same pass, the
# entropy coder walking the set bits. The array forms it replaced
# (quantizeBlock filling 64 levels, dequantizeBlock and a two-scan
# emitBlock reading all 64 again) are the tests' reference: neither
# function, nor a loop over a whole level array, comes back into the
# encoder. The identity and pool tests run on one thread too (the
# row-parallel analysis pass shares the pool and the mask with the serial
# one), and the encoder's benchmarks run once so that they cannot rot.
if grep -rnE '(quantizeBlock|dequantizeBlock)\(' --include='*.go' --exclude='*_test.go' internal/codec ||
	grep -nE 'range [^{]*levels|levels\[i\]' internal/codec/encoder.go internal/codec/tile.go internal/codec/transform.go; then
	echo "verify: the encoder fills or scans a whole level array again (see above); quantizeResidual's mask is the one route from residual to bitstream" >&2
	exit 1
fi
# Pixel kernels (DESIGN.md §5.9 item 4): motion search reads the
# edge-extended reference, so every candidate is one sad16 call; the
# clamped SAD loop and plane.rowAt stay deleted (refSADBlock in
# analysis_test.go is the reference). The !amd64 build of the generic
# kernels — the codec's and the blur's — is vetted and its tests
# compiled, so that it cannot rot.
if grep -rnE 'rowAt\(|sadBlock\(' --include='*.go' --exclude='*_test.go' internal/codec; then
	echo "verify: a clamped SAD loop is back in the codec (see above); motion search reads the extended reference (extPlane) through sad16" >&2
	exit 1
fi
GOARCH=arm64 go vet ./internal/codec ./internal/queries
GOARCH=arm64 go test -c -o /dev/null ./internal/codec
GOARCH=arm64 go test -c -o /dev/null ./internal/queries
GOMAXPROCS=1 go test -run 'TestQuantizeMaskMatchesReference|TestEmitBlockMatchesReference|TestWriteUEOneWrite|TestExtractReturnsResidualSum|TestCopyMBMatchesReference|TestSADMatchesReference|TestMotionSearchDecisionIdentical|TestPooledEncoderIsFresh|TestReleasedEncoderRefusesFrames|TestNewEncoderFromWarmPoolAllocs|TestEncodeSteadyStateAllocs|TestKernelsMatchGeneric|TestKernelsRefuseOutOfSliceBlocks|TestExtendedPlaneMatchesAt|FuzzPixelKernels|FuzzBitioRoundTrip|FuzzQuantizeZeroBlock|TestFDCT8MatchesFast|FuzzFDCT8' ./internal/codec
GOMAXPROCS=1 go test -run 'TestBlurKernelsMatchGeneric|TestBlurKernelsRefuseOutOfSlice|FuzzBlurPlane|TestBlurGolden|TestFusedKernelsMatchClosureForms' ./internal/queries
go test -run '^$' -bench 'Encode$|EncodeBlocks|MotionSearch$|FDCT8' -benchtime 1x ./internal/codec
# Lane-parallel float kernels (DESIGN.md §5.9 item 4): the blur's and the
# forward DCT's SSE2 twins run their Go twins' operations in order, and
# the expressions that define output bytes round every product, so no
# compiler fuses a multiply-add into them. The arm64 compiler would
# (fused-ops.sh reads its assembly); an amd64 one targeting FMA hardware
# may, so the identity tests and goldens run under GOAMD64=v3 too.
sh scripts/fused-ops.sh
GOAMD64=v3 go test -run 'Blur|FDCT|KernelsMatchGeneric|Golden' ./internal/queries ./internal/codec
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
# The generator's identity suites, whole, with the scheduler pinned to
# one thread (DESIGN.md §5.15: worker-held renderers make the camera →
# renderer assignment depend on scheduling).
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
# One report path (DESIGN.md §5.16): a run's result is
# vcd.InstanceResult on the wire, vcd.RunReport/ReportSummary in a
# report and vcd.Artifact in a -metrics-json file; the mirrors and their
# copy loops stay deleted.
if grep -rnE 'QueryCell|SystemRun|ValidationWire|remoteError|telemetryArtifact|onlineArtifact|metricsArtifact|cellTelemetryJSON|runTelemetryJSON|collectTelemetry' --include='*.go' --exclude='*_test.go' cmd internal; then
	echo "verify: a deleted report mirror is back (see above); add the field to the vcd type it mirrors" >&2
	exit 1
fi
# Execute-stage kernels (DESIGN.md §5.5): the engines call the fused
# kernels of internal/queries. Per-pixel closure dispatch and a window
# re-summed for every output frame stay out of internal/vdbms, and the
# per-frame Q2(d) mask the sliding window replaced stays deleted. The
# kernel benchmarks run once so that they cannot rot.
if grep -rnE 'JoinPFrame\(|PMapFrame\(|AggregateMean\(' --include='*.go' --exclude='*_test.go' internal/vdbms; then
	echo "verify: an engine dispatches a closure per pixel or re-sums a window per frame (see above); use queries.NewMaskStream / OverlayBoxes / NewGaussianBlur, or add a fused kernel beside them" >&2
	exit 1
fi
if grep -rn 'maskFrameQ2d' --include='*.go' --exclude='*_test.go' cmd internal; then
	echo "verify: maskFrameQ2d is back (see above); Q2(d) is the sliding window of internal/queries/maskstream.go" >&2
	exit 1
fi
go test -run '^$' -bench Kernels -benchtime 1x ./internal/queries
# One result path (DESIGN.md §5.5 "Result writer"): every query result
# reaches the encoder through vcd's one result writer, whether the
# engine writes it frame by frame or emits it whole, and the LightDB-
# like evaluation loop writes each frame as it is produced. A second
# encoder construction in internal/vcd is a second result-encode path
# (codec.EncodeVideo there stages inputs — the stitched Q10 panorama,
# Q6(a)'s box video — in batch.go only); an out.Append( in engine.go is
# a result held O(clip) again.
if [ "$(grep -rn 'codec\.NewEncoder(' --include='*.go' --exclude='*_test.go' internal/vcd | wc -l)" -ne 1 ] ||
	grep -rn 'codec\.EncodeVideo(' --include='*.go' --exclude='*_test.go' internal/vcd | grep -v '^internal/vcd/batch\.go:'; then
	echo "verify: want one codec.NewEncoder( in internal/vcd (the result writer) and codec.EncodeVideo( only where batch.go stages inputs — results go through resultWriter" >&2
	exit 1
fi
if grep -n 'out\.Append(' internal/vdbms/lightdblike/engine.go; then
	echo "verify: lightdblike's evaluation loop collects its output again (see above); write each frame to the video.Writer it is given" >&2
	exit 1
fi
# The result writer and the decode-ahead pipe with and without a second
# P (they are in the whole-module race step above at the default
# GOMAXPROCS; the -cpu sweep is what runs the pipe on one thread, where
# producer and consumer only interleave, and on several).
go test -race -cpu 1,2,4 -run 'TestOneResultThreeRoutes|TestResultWriterRetainsOnlyForValidation|TestResultFailuresLeaveNothingBehind' ./internal/vcd
go test -race -cpu 1,2,4 -run 'TestStreamingFailuresUnwind|TestDecodeAhead|TestIdentityTransformLeavesTheCacheItsOwnFrames' ./internal/vdbms/lightdblike
# The benchmark (bench/, a module of its own that the root's ./... does
# not descend into) must build and its smoke test — every workload once,
# end to end and traced — must pass, so the ruler cannot rot between the
# PRs that use it. `bash bench/run.sh` is the measuring run; see
# bench/README.md.
(cd bench && go vet ./... && go test ./...)
