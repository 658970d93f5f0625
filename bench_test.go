package visualroad

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section, plus ablation benches for the design
// choices DESIGN.md calls out. Benchmarks run at model scale (small
// resolution, sub-second clips) so `go test -bench=.` completes on a
// laptop; cmd/vrbench runs the same experiments with adjustable knobs
// and prints the paper-shaped tables.

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/render"
	"repro/internal/stream"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vfs"
	"repro/internal/video"
)

// obsEnabled turns the metrics registry on when the benchmark runs with
// VR_OBS=1, so the hot benchmarks can be run both ways by hand; the
// tracked overhead figure is metrics.enabled_overhead_frac in the traced
// pass of `bash bench/run.sh` (bench/README.md).
func obsEnabled(b *testing.B) {
	b.Helper()
	if os.Getenv("VR_OBS") == "1" {
		metrics.SetEnabled(true)
		b.Cleanup(func() { metrics.SetEnabled(false) })
	}
}

// benchDataset lazily generates one shared model-scale dataset.
var benchDataset struct {
	once sync.Once
	ds   *vcd.Dataset
	err  error
}

func sharedDataset(b *testing.B) *vcd.Dataset {
	b.Helper()
	benchDataset.once.Do(func() {
		store := vfs.NewMemory()
		_, err := vcg.Generate(vcity.Hyperparams{
			Scale: 2, Width: 192, Height: 108, Duration: 0.6, FPS: 15, Seed: 1,
		}, vcg.Options{Captions: true, QP: 22}, store)
		if err != nil {
			benchDataset.err = err
			return
		}
		benchDataset.ds, benchDataset.err = vcd.LoadDataset(store, detect.ProfileSynthetic)
	})
	if benchDataset.err != nil {
		b.Fatal(benchDataset.err)
	}
	return benchDataset.ds
}

// modelPreset scales a paper preset down to model scale: resolution is
// divided by the divisor (keeping aspect), and the duration replaced.
func modelPreset(p core.Preset, divisor int, duration float64) vcity.Hyperparams {
	h := p.Params
	h.Width = evenDim(h.Width / divisor)
	h.Height = evenDim(h.Height / divisor)
	h.Duration = duration
	return h
}

func evenDim(v int) int {
	if v < 16 {
		v = 16
	}
	return v &^ 1
}

// BenchmarkTable2Presets measures dataset generation for each Table 2
// preset at model scale (1/4 linear resolution, 0.5 s clips) — the cost
// structure of the paper's pregenerated datasets.
func BenchmarkTable2Presets(b *testing.B) {
	for _, p := range core.Presets {
		params := modelPreset(p, 4, 0.5)
		params.FPS = 15
		params.Seed = 1
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := vfs.NewMemory()
				if _, err := vcg.Generate(params, vcg.Options{QP: 24}, store); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable9 measures each microbenchmark on both comparison
// engines over the four corpora of the dataset-validation experiment,
// built once. The paper's shape: visual-road tracks the recorded
// baseline, duplicates flatter the caching engine, random noise
// inflates decode-bound queries.
func BenchmarkTable9(b *testing.B) {
	cfg := core.Table9Config{NumVideos: 3, Duration: 0.5, Width: 192, Height: 108, FPS: 15, Seed: 11, Instances: 2}
	corpora, err := core.BuildCorpora(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []queries.QueryID{queries.Q1, queries.Q2a, queries.Q2b, queries.Q5} {
		b.Run(string(q), func(b *testing.B) {
			cfg := cfg
			cfg.Queries = []queries.QueryID{q}
			for i := 0; i < b.N; i++ {
				if _, err := core.Table9On(corpora, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure5 measures each query batch on each engine over one
// shared dataset — the per-query system comparison.
func BenchmarkFigure5(b *testing.B) {
	ds := sharedDataset(b)
	for _, q := range queries.AllQueries {
		b.Run(string(q), func(b *testing.B) {
			for _, sys := range core.NewSystems(16<<20, 24<<20) {
				if !sys.Supports(q) {
					continue
				}
				b.Run(sys.Name(), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						_, err := vcd.Run(ds, sys, vcd.Options{
							Queries:           []queries.QueryID{q},
							InstancesPerScale: 1,
							Seed:              7,
							Mode:              vcd.StreamingMode,
							MaxUpsamplePixels: 1 << 21,
						})
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkFigure6 sweeps the scale factor for a representative query
// subset — the runtime-vs-L comparison where the Scanner-like engine's
// materialization thrashes.
func BenchmarkFigure6(b *testing.B) {
	for _, L := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("L=%d", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.CompareSystems(core.CompareConfig{
					Scale: L, Duration: 0.4,
					Options: vcd.Options{
						Seed:              3,
						Queries:           []queries.QueryID{queries.Q1, queries.Q2c},
						InstancesPerScale: 1,
					},
					ScannerMemoryBudget: 6 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure8 measures single-node generation by scale and
// resolution — approximately linear in L at each resolution.
func BenchmarkFigure8(b *testing.B) {
	for _, res := range []string{"1k", "2k"} {
		w, h, err := core.ModelResolution(res)
		if err != nil {
			b.Fatal(err)
		}
		for _, L := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/L=%d", res, L), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					store := vfs.NewMemory()
					_, err := vcg.Generate(vcity.Hyperparams{
						Scale: L, Width: w, Height: h, Duration: 0.4, FPS: 15, Seed: 5,
					}, vcg.Options{QP: 24}, store)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure9 measures distributed generation by node count — the
// coordination-free linear speedup of parallel tile simulation. It runs
// in Sequential mode so each simulated node's work is timed without CPU
// contention from its peers (ClusterElapsed models node-per-machine).
func BenchmarkFigure9(b *testing.B) {
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := vfs.NewMemory()
				_, err := vcg.Generate(vcity.Hyperparams{
					Scale: 4, Width: 192, Height: 108, Duration: 0.4, FPS: 15, Seed: 5,
				}, vcg.Options{QP: 24, Nodes: nodes, Sequential: true}, store)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteVsStream measures the §6.4 result-mode comparison: the
// write-mode overhead should be small relative to processing.
func BenchmarkWriteVsStream(b *testing.B) {
	ds := sharedDataset(b)
	for _, mode := range []struct {
		name string
		mode vcd.ResultMode
	}{{"write", vcd.WriteMode}, {"streaming", vcd.StreamingMode}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := vcd.Options{
					Queries:           []queries.QueryID{queries.Q1, queries.Q2a},
					InstancesPerScale: 1,
					Seed:              7,
					Mode:              mode.mode,
				}
				if mode.mode == vcd.WriteMode {
					opt.ResultStore = vfs.NewMemory()
				}
				if _, err := vcd.Run(ds, LightDBLike(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCodecNoise isolates the Table 9 "Random" pathology:
// the codec compresses structured city frames but gains nothing on
// noise, inflating both encode time and payload.
func BenchmarkAblationCodecNoise(b *testing.B) {
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: 1, Width: 192, Height: 108, Duration: 0.5, FPS: 15, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	structured := render.Capture(city, city.TrafficCameras()[0])
	noise := video.NewVideo(15)
	rng := vcity.NewRNG(9)
	for range structured.Frames {
		f := video.NewFrame(192, 108)
		for i := range f.Y {
			f.Y[i] = byte(rng.Uint64())
		}
		noise.Append(f)
	}
	for _, tc := range []struct {
		name string
		v    *video.Video
	}{{"structured", structured}, {"noise", noise}} {
		b.Run(tc.name, func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				enc, err := codec.EncodeVideo(tc.v, codec.Config{QP: 24})
				if err != nil {
					b.Fatal(err)
				}
				bytes = enc.Size()
			}
			b.ReportMetric(float64(bytes), "payload-bytes")
		})
	}
}

// BenchmarkAblationCascade isolates the NoScope-like engine's
// difference-detector cascade — the design choice behind its Q2(c)
// speed.
func BenchmarkAblationCascade(b *testing.B) {
	ds := sharedDataset(b)
	for _, tc := range []struct {
		name    string
		cascade bool
	}{{"cascade-on", true}, {"cascade-off", false}} {
		b.Run(tc.name, func(b *testing.B) {
			sys := noscopelike.New(noscopelike.Options{Cascade: tc.cascade})
			for i := 0; i < b.N; i++ {
				_, err := vcd.Run(ds, sys, vcd.Options{
					Queries:           []queries.QueryID{queries.Q2c},
					InstancesPerScale: 1,
					Seed:              7,
					Mode:              vcd.StreamingMode,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMaterialization sweeps the Scanner-like memory
// budget: shrinking the materialization pool forces spill-and-page-in,
// the mechanism behind the paper's "memory thrashing" observation.
func BenchmarkAblationMaterialization(b *testing.B) {
	ds := sharedDataset(b)
	for _, budget := range []int64{1 << 20, 64 << 20} {
		b.Run(fmt.Sprintf("budget=%dMiB", budget>>20), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := core.NewSystems(budget, 1<<30)[0]
				_, err := vcd.Run(ds, sys, vcd.Options{
					Queries:           []queries.QueryID{queries.Q2a, queries.Q2d},
					InstancesPerScale: 1,
					Seed:              7,
					Mode:              vcd.StreamingMode,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDetectorCost isolates the detector cost model: the
// convolution kernel is what makes detection queries dominate, as CNN
// inference does in the paper.
func BenchmarkAblationDetectorCost(b *testing.B) {
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: 1, Width: 192, Height: 108, Duration: 0.4, FPS: 15, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	cam := city.TrafficCameras()[0]
	v := render.Capture(city, cam)
	tile := city.TileOf(cam)
	for _, tc := range []struct {
		name   string
		passes int
	}{{"oracle-only", 0}, {"conv-cost", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			det := detect.NewYOLO(detect.ProfileSynthetic, 5)
			det.CostPasses = tc.passes
			for i := 0; i < b.N; i++ {
				for fi, f := range v.Frames {
					t := float64(fi) / 15
					obs := tile.GroundTruth(cam, t, f.W, f.H)
					det.Detect(f, cam.ID, obs)
				}
			}
		})
	}
}

// BenchmarkOnlineFaults measures the LightDB-like engine's online-mode
// throughput over RTP on a fake clock (pure processing rate, no
// wall-clock pacing) at the core.OnlineFaultRates ladder: clean channel,
// 1% drop, 5% drop, one online vcd.Run of the Q2(a) batch per rate. The
// reported fps and dropped-frame metrics show how gracefully the online
// decoder degrades as the seeded fault schedule intensifies.
func BenchmarkOnlineFaults(b *testing.B) {
	obsEnabled(b)
	ds := sharedDataset(b)
	for _, tc := range []struct {
		name string
		rate float64
	}{{"fault0", 0}, {"fault1", 0.01}, {"fault5", 0.05}} {
		b.Run(tc.name, func(b *testing.B) {
			opt := vcd.Options{Queries: []queries.QueryID{queries.Q2a}, InstancesPerScale: 1, Seed: 7, MaxUpsamplePixels: 1 << 22,
				Mode: vcd.StreamingMode, Online: &vcd.OnlineOptions{
					Transport: vcd.TransportRTP,
					Clock:     func() stream.Clock { return stream.NewFakeClock(time.Unix(0, 0)) },
				}}
			if tc.rate > 0 {
				opt.Online.Faults = &stream.FaultPlan{Seed: 7, DropRate: tc.rate}
			}
			sys := lightdblike.New(lightdblike.Options{})
			var fps, dropped float64
			for i := 0; i < b.N; i++ {
				rep, err := vcd.Run(ds, sys, opt)
				if err != nil {
					b.Fatal(err)
				}
				online := rep.Queries[0].Online
				fps = online.FPS
				dropped = float64(online.FramesDropped)
			}
			b.ReportMetric(fps, "fps")
			b.ReportMetric(dropped, "dropped-frames")
		})
	}
}

// BenchmarkQualityAP measures the §6.3.1 detection-quality computation.
func BenchmarkQualityAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectionQuality(core.QualityConfig{Frames: 80, Seed: 21}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ vdbms.System = (*noscopelike.Engine)(nil)
