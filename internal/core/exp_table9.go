package core

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/detect"
	"repro/internal/queries"
	"repro/internal/stablehash"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
	"repro/internal/video"
	"repro/internal/vtt"
)

// Corpus is a named set of benchmark inputs for the dataset-validation
// experiment.
type Corpus struct {
	Name   string
	Inputs []*vdbms.Input
}

// Table9Config parameterizes the dataset-validation experiment. The
// paper uses 60 one-to-several-minute 1k videos; the model-scale
// defaults shrink counts and durations while preserving the four-corpus
// structure.
type Table9Config struct {
	NumVideos     int
	Width, Height int
	Duration      float64
	FPS           int
	Seed          uint64
	Instances     int // query instances per batch
	Queries       []queries.QueryID
	// Workers bounds corpus-generation parallelism (0 = one worker per
	// CPU); generated bytes are identical at every worker count.
	Workers int
}

func (c Table9Config) withDefaults() Table9Config {
	if c.NumVideos <= 0 {
		c.NumVideos = 6
	}
	if c.Width <= 0 {
		c.Width, c.Height = 240, 136
	}
	if c.Duration <= 0 {
		c.Duration = 1.0
	}
	if c.FPS <= 0 {
		c.FPS = 15
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Instances <= 0 {
		c.Instances = 4
	}
	if len(c.Queries) == 0 {
		c.Queries = queries.MicroQueries
	}
	return c
}

// Table9Cell is one (query, system, corpus) runtime with its speedup
// relative to the recorded-video baseline.
type Table9Cell struct {
	Query   queries.QueryID
	System  string
	Corpus  string
	Elapsed time.Duration
	// Ratio is elapsed / baseline elapsed for the same (query, system).
	Ratio float64
	// Magnitude flags a discrepancy of roughly an order of magnitude
	// versus the baseline (the paper's yellow cells).
	Magnitude bool
}

// Table9Result is the dataset-validation grid.
type Table9Result struct {
	Config  Table9Config
	Corpora []string
	Cells   []Table9Cell
	// Disagreements flags (query, corpus) pairs where the faster
	// system differs from the baseline's faster system (the paper's
	// red cells).
	Disagreements map[string]bool
}

// Cell returns the measurement for (query, system, corpus).
func (r *Table9Result) Cell(q queries.QueryID, system, corpus string) (Table9Cell, bool) {
	for _, c := range r.Cells {
		if c.Query == q && c.System == system && c.Corpus == corpus {
			return c, true
		}
	}
	return Table9Cell{}, false
}

// table9Systems are the two engines the paper uses for this experiment.
func table9Systems() []vdbms.System {
	return []vdbms.System{
		lightdblike.New(lightdblike.Options{}),
		scannerlike.New(scannerlike.Options{}),
	}
}

// Table9 reproduces the dataset-validation experiment: the
// microbenchmarks executed on the LightDB-like and Scanner-like engines
// over four corpora — the recorded-video baseline (UA-DETRAC stand-in),
// Visual Road synthetic video, a corpus of duplicated videos, and
// random noise — reporting runtimes and discrepancy flags.
func Table9(cfg Table9Config) (*Table9Result, error) {
	cfg = cfg.withDefaults()
	corpora, err := BuildCorpora(cfg)
	if err != nil {
		return nil, err
	}
	result := &Table9Result{
		Config:        cfg,
		Disagreements: map[string]bool{},
	}
	for _, c := range corpora {
		result.Corpora = append(result.Corpora, c.Name)
	}

	// Measure every (system, corpus, query) batch. The same parameter
	// seeds are used across corpora so instances match.
	elapsed := map[string]time.Duration{} // key: query|system|corpus
	key := func(q queries.QueryID, sys, corpus string) string {
		return string(q) + "|" + sys + "|" + corpus
	}
	for _, corpus := range corpora {
		for _, sys := range table9Systems() {
			for _, q := range cfg.Queries {
				d, err := runCorpusBatch(corpus, sys, q, cfg)
				if err != nil {
					return nil, fmt.Errorf("core: table9 %s/%s/%s: %w", corpus.Name, sys.Name(), q, err)
				}
				elapsed[key(q, sys.Name(), corpus.Name)] = d
				// Quiesce between query batches (as the VCD does) so
				// one batch's caches do not subsidize the next.
				if sd, ok := sys.(interface{ Shutdown() }); ok {
					sd.Shutdown()
				}
			}
		}
	}

	baseline := corpora[0].Name
	for _, corpus := range corpora {
		for _, sys := range table9Systems() {
			for _, q := range cfg.Queries {
				e := elapsed[key(q, sys.Name(), corpus.Name)]
				b := elapsed[key(q, sys.Name(), baseline)]
				cell := Table9Cell{
					Query: q, System: sys.Name(), Corpus: corpus.Name, Elapsed: e,
				}
				if b > 0 {
					cell.Ratio = float64(e) / float64(b)
					cell.Magnitude = cell.Ratio >= 7 || cell.Ratio <= 1.0/7
				}
				result.Cells = append(result.Cells, cell)
			}
		}
	}

	// Red flags: does the faster system flip versus the baseline?
	sysA, sysB := "lightdblike", "scannerlike"
	for _, corpus := range corpora[1:] {
		for _, q := range cfg.Queries {
			ba := elapsed[key(q, sysA, baseline)]
			bb := elapsed[key(q, sysB, baseline)]
			ca := elapsed[key(q, sysA, corpus.Name)]
			cb := elapsed[key(q, sysB, corpus.Name)]
			if (ba < bb) != (ca < cb) {
				result.Disagreements[string(q)+"|"+corpus.Name] = true
			}
		}
	}
	return result, nil
}

// BuildCorpora constructs the four corpora. The first is the baseline.
func BuildCorpora(cfg Table9Config) ([]Corpus, error) {
	cfg = cfg.withDefaults()
	recorded, err := renderedCorpus(cfg, "ua-detrac-proxy", cfg.Seed+100, vcg.ProfileRecorded)
	if err != nil {
		return nil, err
	}
	visualRoad, err := renderedCorpus(cfg, "visual-road", cfg.Seed+200, vcg.ProfileSynthetic)
	if err != nil {
		return nil, err
	}
	duplicates := duplicatedCorpus(recorded, cfg.NumVideos)
	random, err := randomCorpus(cfg, recorded)
	if err != nil {
		return nil, err
	}
	return []Corpus{recorded, visualRoad, duplicates, random}, nil
}

// renderedCorpus generates cfg.NumVideos traffic-camera videos with the
// given capture profile. Scale is chosen so the city has enough traffic
// cameras.
func renderedCorpus(cfg Table9Config, name string, seed uint64, profile vcg.Profile) (Corpus, error) {
	scale := (cfg.NumVideos + vcity.DefaultCameraConfig.Traffic - 1) / vcity.DefaultCameraConfig.Traffic
	store := vfs.NewMemory()
	_, err := vcg.Generate(vcity.Hyperparams{
		Scale: scale, Width: cfg.Width, Height: cfg.Height,
		Duration: cfg.Duration, FPS: cfg.FPS, Seed: seed,
	}, vcg.Options{Captions: true, QP: 22, Profile: profile, Workers: cfg.Workers}, store)
	if err != nil {
		return Corpus{}, err
	}
	ds, err := vcd.LoadDataset(store, noiseFor(profile))
	if err != nil {
		return Corpus{}, err
	}
	corpus := Corpus{Name: name}
	for _, id := range ds.TrafficCameraIDs() {
		if len(corpus.Inputs) >= cfg.NumVideos {
			break
		}
		in, err := ds.Input(id)
		if err != nil {
			return Corpus{}, err
		}
		corpus.Inputs = append(corpus.Inputs, in)
	}
	return corpus, nil
}

func noiseFor(profile vcg.Profile) detect.NoiseModel {
	if profile == vcg.ProfileRecorded {
		return detect.ProfileRecorded
	}
	return detect.ProfileSynthetic
}

// duplicatedCorpus replicates the baseline's first video n times: the
// "a user reproduces one manually-annotated video" strategy.
func duplicatedCorpus(baseline Corpus, n int) Corpus {
	corpus := Corpus{Name: "duplicates"}
	src := baseline.Inputs[0]
	for i := 0; i < n; i++ {
		dup := *src
		dup.Name = fmt.Sprintf("%s-dup%d", src.Name, i)
		corpus.Inputs = append(corpus.Inputs, &dup)
	}
	return corpus
}

// randomCorpus builds n noise videos matched in resolution, duration,
// and frame rate; environments are borrowed from the baseline corpus so
// context-dependent queries remain executable.
func randomCorpus(cfg Table9Config, baseline Corpus) (Corpus, error) {
	corpus := Corpus{Name: "random"}
	rng := vcity.NewRNG(cfg.Seed + 300)
	frames := int(cfg.Duration * float64(cfg.FPS))
	for i := 0; i < cfg.NumVideos; i++ {
		v := video.NewVideo(cfg.FPS)
		for f := 0; f < frames; f++ {
			fr := video.NewFrame(cfg.Width, cfg.Height)
			fillNoise(fr, rng)
			v.Append(fr)
		}
		enc, err := codec.EncodeVideo(v, codec.Config{
			Width: cfg.Width, Height: cfg.Height, FPS: cfg.FPS, QP: 22,
		})
		if err != nil {
			return Corpus{}, err
		}
		base := baseline.Inputs[i%len(baseline.Inputs)]
		captions := vtt.Marshal(vcg.GenerateCaptions(fmt.Sprintf("random%d", i), cfg.Duration, cfg.Seed+400))
		corpus.Inputs = append(corpus.Inputs, &vdbms.Input{
			Name:     fmt.Sprintf("random%d", i),
			Encoded:  enc,
			Captions: captions,
			Env:      base.Env,
		})
	}
	return corpus, nil
}

func fillNoise(f *video.Frame, rng *vcity.RNG) {
	for i := range f.Y {
		f.Y[i] = byte(rng.Uint64())
	}
	for i := range f.U {
		f.U[i] = byte(rng.Uint64())
		f.V[i] = byte(rng.Uint64())
	}
}

// runCorpusBatch executes one query batch over a corpus: instances use
// the corpus inputs round-robin with identical parameter seeds across
// corpora.
func runCorpusBatch(corpus Corpus, sys vdbms.System, q queries.QueryID, cfg Table9Config) (time.Duration, error) {
	sampler := vcd.NewParamSampler(cfg.Seed^stablehash.String(string(q)), cfg.Width, cfg.Height, cfg.Duration)
	sampler.MaxUpsamplePixels = vcd.UpsampleCapModel
	var insts []*vdbms.QueryInstance
	for i := 0; i < cfg.Instances; i++ {
		in := corpus.Inputs[i%len(corpus.Inputs)]
		ctx := vcd.SampleContext{InputW: cfg.Width, InputH: cfg.Height}
		if q == queries.Q6b {
			doc, err := vtt.Parse(in.Captions)
			if err != nil {
				return 0, err
			}
			ctx.Captions = doc
		}
		p, err := sampler.Sample(q, ctx)
		if err != nil {
			return 0, err
		}
		insts = append(insts, &vdbms.QueryInstance{
			Query: q, Params: p, Inputs: []*vdbms.Input{in},
		})
	}
	start := time.Now()
	for _, inst := range insts {
		err := sys.Execute(inst, vdbms.SinkFunc(func(string, *video.Video) error { return nil }))
		if err != nil {
			if _, ok := err.(*vdbms.ErrResource); ok {
				continue // resource failures count toward elapsed time
			}
			return 0, err
		}
	}
	return time.Since(start), nil
}

// RunCorpusBatchForBench executes one query batch of the dataset-
// validation experiment on both comparison engines and returns the
// combined elapsed time; it backs the BenchmarkTable9 harness.
func RunCorpusBatchForBench(corpus Corpus, q queries.QueryID, cfg Table9Config) (time.Duration, error) {
	cfg = cfg.withDefaults()
	var total time.Duration
	for _, sys := range table9Systems() {
		d, err := runCorpusBatch(corpus, sys, q, cfg)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}
