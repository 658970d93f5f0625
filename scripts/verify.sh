#!/bin/sh
# The verify recipe, and its one copy: CI runs this file as it is. It
# takes no arguments; run it from the repository root. The guards that
# keep deleted code deleted, and gofmt, are rows of internal/guard, which
# `go test ./...` runs.
set -eux

go vet ./...
# The portable (!amd64) kernels of the codec, the blur and the box
# filter must vet and their tests compile.
GOARCH=arm64 go vet ./...
GOARCH=arm64 go test -c -o /dev/null ./internal/codec
GOARCH=arm64 go test -c -o /dev/null ./internal/queries
GOARCH=arm64 go test -c -o /dev/null ./internal/video
go build ./...
# The full suite, once. Its verbose log names each skipped test too, and
# a skip fails the gate like a failure does: a skipped test asserts
# nothing.
log=$(mktemp)
go test -v ./... >"$log" 2>&1 || { grep -v -e '^=== ' -e '^ *--- PASS' "$log"; exit 1; }
if grep -e '--- SKIP' "$log"; then exit 1; fi
rm -f "$log"
# The race detector over every package. What interleaves: the worker
# pool and parallel generation, the row- and tile-parallel encoder, the
# decode request's worker pool, concurrent query batches over the shared
# decoded cache, every RunOnlineOpts exit path, the lock-free metrics
# registry, the shard plane and the differential test's topologies, the
# vrserved control plane, and internal/cli building and running every
# binary. Fuzz seed corpora run as ordinary tests. Race builds poison
# every recycled frame (internal/video), so a frame used after it went
# back to the pool fails the goldens and the differential test here.
# internal/render goes -short: its single-threaded oracle corpus takes
# > 3 min whole under the detector.
go test -race $(go list ./... | grep -v /internal/render)
go test -race -short ./internal/render
# Every suite with the scheduler pinned to one thread: the row-parallel
# analysis pass, tile-parallel encode, the decode request's worker pool
# and worker-held renderers must not depend on real parallelism to be
# bit-identical.
GOMAXPROCS=1 go test ./...
# The result writer and the LightDB-like decode-ahead pipe with and
# without a second P: on one thread producer and consumer only
# interleave.
go test -race -cpu 1,2,4 -run Result ./internal/vcd
go test -race -cpu 1,2,4 ./internal/vdbms/lightdblike
# Frame recycling with one, two and four Ps: a runner's Close and a
# shard conversation's end hand the decoded cache back to the frame
# registry, the result writer recycles what it encoded, and race builds
# poison every recycled frame.
go test -race -cpu 1,2,4 -run 'Recycl|Close' ./internal/vcd ./internal/shard ./internal/video
# The online stream likewise: the pipe transport is a synchronous
# net.Pipe hand-off between the RTP sender and receiver, so every packet
# is a rendezvous of two goroutines, and online mode runs LightDB-like,
# whose decode-ahead pipe pulls the session's frames on a goroutine of
# its own.
go test -race -cpu 1,2,4 -run 'Online|RTP|Pipe|SendVideo' ./internal/vcd ./internal/stream
# Every benchmark once, so that none can rot.
go test -run '^$' -bench . -benchtime 1x ./...
# Float arithmetic that defines output bytes (the Q2(b) blur; the codec is
# integer) is fusion-proof and CPU-independent (DESIGN.md §5.9 item 4): no
# fused multiply-add in the arm64 assembly of the byte-defining functions,
# and the identities and goldens hold on an amd64 target with FMA and with
# math.Exp's non-FMA path. The renderer too: the store golden, and the
# renderer held to its oracle, at the corpus sizes and at 960×540.
sh scripts/fused-ops.sh
GOAMD64=v3 go test ./internal/codec ./internal/queries ./internal/vcg
GOAMD64=v3 go test -short ./internal/render
GODEBUG=cpu.fma=off go test ./internal/codec ./internal/queries ./internal/vcg
GODEBUG=cpu.fma=off go test -short ./internal/render
# The benchmark (bench/, a module of its own that the root's ./... does
# not descend into) must build and its smoke test — every workload once,
# end to end and traced — must pass. `bash bench/run.sh` is the
# measuring run; see bench/README.md.
(cd bench && go vet ./... && go test ./...)
