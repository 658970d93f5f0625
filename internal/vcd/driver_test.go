package vcd

import (
	"strings"
	"testing"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vfs"
	"repro/internal/video"
)

func TestBuildBatchSizeAndDeterminism(t *testing.T) {
	ds := testDataset(t)
	opt := Options{Seed: 5}.WithDefaults()
	a, err := BuildBatch(ds, queries.Q1, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 {
		t.Fatalf("batch size %d", len(a))
	}
	b, err := BuildBatch(ds, queries.Q1, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !paramsEq(a[i].Params, b[i].Params) || a[i].Inputs[0].Name != b[i].Inputs[0].Name {
			t.Fatalf("instance %d differs between identical batch builds", i)
		}
	}
	// A different seed draws different parameters.
	c, err := BuildBatch(ds, queries.Q1, 6, Options{Seed: 6}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if paramsEq(a[i].Params, c[i].Params) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical batches")
	}
}

// paramsEq compares the Q1-relevant scalar fields.
func paramsEq(a, b queries.Params) bool {
	return a.X1 == b.X1 && a.Y1 == b.Y1 && a.X2 == b.X2 && a.Y2 == b.Y2 &&
		a.T1 == b.T1 && a.T2 == b.T2
}

func TestBuildBatchParamsInDomain(t *testing.T) {
	ds := testDataset(t)
	opt := Options{Seed: 9, MaxUpsamplePixels: 1 << 22}.WithDefaults()
	for _, q := range queries.MicroQueries {
		insts, err := BuildBatch(ds, q, 8, opt)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for i, inst := range insts {
			p := inst.Params
			if err := p.Validate(q, ds.Manifest.Width, ds.Manifest.Height, ds.Manifest.Duration); err != nil {
				t.Errorf("%s instance %d: sampled parameters outside Table 3 domain: %v", q, i, err)
			}
		}
	}
}

func TestBuildBatchQ8UsesTilePlates(t *testing.T) {
	ds := testDataset(t)
	insts, err := BuildBatch(ds, queries.Q8, 4, Options{Seed: 2}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		if len(inst.Inputs) == 0 {
			t.Fatal("Q8 instance has no inputs")
		}
		tile := inst.Inputs[0].Camera().Tile
		found := false
		for _, p := range ds.TilePlates(tile) {
			if p == inst.Params.Plate {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("plate %s does not belong to tile %d", inst.Params.Plate, tile)
		}
		for _, in := range inst.Inputs {
			if in.Camera().Tile != tile {
				t.Error("Q8 inputs span tiles; tracking segments cannot cross disconnected tiles")
			}
			if in.Camera().Kind != vcity.TrafficCamera {
				t.Error("Q8 inputs must be traffic cameras")
			}
		}
	}
}

func TestBuildBatchQ9PanoGroups(t *testing.T) {
	ds := testDataset(t)
	insts, err := BuildBatch(ds, queries.Q9, 2, Options{Seed: 2}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		if len(inst.Inputs) != 4 {
			t.Fatalf("Q9 instance has %d inputs", len(inst.Inputs))
		}
		prefix := inst.Inputs[0].Name[:strings.LastIndex(inst.Inputs[0].Name, "-sub")]
		for _, in := range inst.Inputs {
			if !strings.HasPrefix(in.Name, prefix) {
				t.Error("Q9 inputs from different panoramic groups")
			}
		}
	}
}

func TestWriteModePersistsResults(t *testing.T) {
	ds := testDataset(t)
	results := vfs.NewMemory()
	report, err := Run(ds, lightdblike.New(lightdblike.Options{}), Options{
		Queries:           []queries.QueryID{queries.Q1},
		InstancesPerScale: 2,
		Seed:              4,
		Mode:              WriteMode,
		ResultStore:       results,
	})
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := report.QueryReport(queries.Q1)
	if qr.Completed != 2 {
		t.Fatalf("completed %d", qr.Completed)
	}
	names, _ := results.List()
	if len(names) != 2 {
		t.Fatalf("wrote %d results, want 2: %v", len(names), names)
	}
	for _, name := range names {
		data, _ := vfs.ReadAll(results, name)
		if len(data) == 0 {
			t.Errorf("result %s is empty", name)
		}
	}
}

func TestWriteModeRequiresStore(t *testing.T) {
	ds := testDataset(t)
	_, err := Run(ds, lightdblike.New(lightdblike.Options{}), Options{Mode: WriteMode})
	if err == nil {
		t.Error("WriteMode without a store should fail")
	}
}

// brokenEngine emits wrong pixels or, with extra set, each output also
// under a key the reference lacks: the validator must fail it.
type brokenEngine struct {
	inner vdbms.System
	extra bool
}

func (b *brokenEngine) Name() string                          { return "broken" }
func (b *brokenEngine) Supports(q queries.QueryID) bool       { return b.inner.Supports(q) }
func (b *brokenEngine) QueryLOC(q queries.QueryID) (int, int) { return 1, 0 }
func (b *brokenEngine) Execute(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	return b.inner.Execute(inst, vdbms.SinkFunc(func(key string, v *video.Video) error {
		if b.extra {
			if err := sink.Emit(key, v); err != nil {
				return err
			}
			return sink.Emit(key+"-extra", v)
		}
		for _, f := range v.Frames {
			for i := range f.Y {
				f.Y[i] ^= 0x5c // corrupt every luma sample
			}
		}
		return sink.Emit(key, v)
	}))
}

func TestValidatorCatchesBrokenEngine(t *testing.T) {
	ds := testDataset(t)
	for _, extra := range []bool{false, true} {
		report, err := Run(ds, &brokenEngine{inner: lightdblike.New(lightdblike.Options{}), extra: extra}, Options{
			Queries:           []queries.QueryID{queries.Q1, queries.Q2a},
			InstancesPerScale: 1,
			Seed:              4,
			Mode:              StreamingMode,
			Validate:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, qr := range report.Queries {
			if qr.Validation.PassRate() > 0 {
				t.Errorf("%s (extra %v): broken output passed validation (rate %.2f)", qr.Query, extra, qr.Validation.PassRate())
			}
			if e := qr.Instances[0].Validation.Err; extra && (e == nil || !strings.Contains(e.Msg, `"out-extra"`)) {
				t.Errorf("%s: the extra output is not named: %v", qr.Query, e)
			}
		}
	}
}

func TestValidateFractionSampling(t *testing.T) {
	ds := testDataset(t)
	report, err := Run(ds, lightdblike.New(lightdblike.Options{}), Options{
		Queries:           []queries.QueryID{queries.Q2a},
		InstancesPerScale: 4,
		Seed:              4,
		Mode:              StreamingMode,
		Validate:          true,
		ValidateFraction:  0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := report.QueryReport(queries.Q2a)
	if qr.Validation.Checked != 2 {
		t.Errorf("validated %d of 4 instances, want 2 at fraction 0.5", qr.Validation.Checked)
	}
}

func TestSemanticValidationQ2c(t *testing.T) {
	// At 128×96 no object is large enough to check; this city has some.
	ds := testDatasetOf(t, 256, 192, 6)
	report, err := Run(ds, lightdblike.New(lightdblike.Options{}), Options{
		Queries:           []queries.QueryID{queries.Q2c},
		InstancesPerScale: 3,
		Seed:              4,
		Mode:              StreamingMode,
		Validate:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := report.QueryReport(queries.Q2c)
	// Most checks pass: the engine draws boxes from the same detection
	// stream the geometry validates.
	if qr.Validation.SemanticChecked == 0 || qr.Validation.SemanticPassRate() < 0.5 {
		t.Errorf("semantic pass rate %.2f over %d checks",
			qr.Validation.SemanticPassRate(), qr.Validation.SemanticChecked)
	}
	// Q2(c) must not be frame-validated by PSNR.
	if qr.Validation.PSNR.N != 0 {
		t.Error("Q2(c) should use semantic validation only")
	}
}

// TestQ8EmptyIsAVerdict: at the benchmark ledger's dataset shape no Q8
// instance finds its plate, and neither does the reference, so every
// instance validates; an empty video against a non-empty one fails
// either way round.
func TestQ8EmptyIsAVerdict(t *testing.T) {
	store := vfs.NewMemory()
	if _, err := vcg.Generate(vcity.Hyperparams{Scale: 2, Width: 192, Height: 108, Duration: 1, FPS: 15, Seed: 0x5eed},
		vcg.Options{Captions: true, QP: 22, DensityFilter: "Moderate", WeatherFilter: "dry"}, store); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(store, detect.ProfileSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(ds, lightdblike.New(lightdblike.Options{}), Options{
		Queries: []queries.QueryID{queries.Q8}, InstancesPerScale: 1, Seed: 1, Mode: StreamingMode, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	qr := report.Queries[0]
	for i, res := range qr.Instances {
		if res.Frames != 0 || res.Validation.Err != nil || res.Validation.PSNR != 100 {
			t.Errorf("Q8[%d]: %d frames, validation error %v, %.1f dB; want an empty result passing at 100 dB", i, res.Frames, res.Validation.Err, res.Validation.PSNR)
		}
	}
	if v := qr.Validation; v.Checked != 2 || v.Passed != 2 {
		t.Errorf("Q8 validated %d of %d, want 2 of 2", v.Passed, v.Checked)
	}

	empty, one := video.NewVideo(15), video.NewVideo(15)
	one.Append(video.NewFrame(16, 16))
	for _, c := range []struct {
		what     string
		out, ref *video.Video
		pass     bool
	}{{"empty against empty", empty, empty, true}, {"empty against a frame", empty, one, false}, {"a frame against empty", one, empty, false}} {
		p, err := outputPSNR(c.out, c.ref)
		if pass := err == nil && p >= metrics.PSNRThreshold; pass != c.pass {
			t.Errorf("%s: %.1f dB, %v; want pass %v", c.what, p, err, c.pass)
		}
	}
}

func TestReportFPS(t *testing.T) {
	qr := QueryReport{Frames: 100}
	if qr.FPS() != 0 {
		t.Error("zero elapsed should report 0 fps")
	}
}

func TestStitchedInputCached(t *testing.T) {
	ds := testDataset(t)
	groups := ds.PanoGroups()
	if len(groups) == 0 {
		t.Skip("no panoramic groups")
	}
	a, err := ds.StitchedInput(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.StitchedInput(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("stitched input should be cached per group")
	}
	if a.Encoded.Config.Width != 2*a.Encoded.Config.Height {
		t.Errorf("stitched input %dx%d not 2:1", a.Encoded.Config.Width, a.Encoded.Config.Height)
	}
}
