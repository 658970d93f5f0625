package vcd

import (
	"testing"

	"repro/internal/detect"
	"repro/internal/queries"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
)

// testDataset generates a tiny dataset once per test binary.
func testDataset(t *testing.T) *Dataset {
	return testDatasetOf(t, 128, 96, 7)
}

// testDatasetOf generates a one-tile, 1 s dataset.
func testDatasetOf(t *testing.T, w, h int, seed uint64) *Dataset {
	t.Helper()
	store, err := vfs.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = vcg.Generate(vcity.Hyperparams{
		Scale: 1, Width: w, Height: h, Duration: 1.0, FPS: 15, Seed: seed,
	}, vcg.Options{Captions: true, QP: 18}, store)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(store, detect.ProfileSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEndToEndMicrobenchmarksAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run in -short mode")
	}
	ds := testDataset(t)
	for _, tc := range []struct {
		name string
		sys  vdbms.System
	}{
		{"scannerlike", scannerlike.New(scannerlike.Options{})},
		{"lightdblike", lightdblike.New(lightdblike.Options{})},
		{"noscopelike", noscopelike.NewDefault()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report, err := Run(ds, tc.sys, Options{
				Queries:           []queries.QueryID{queries.Q1, queries.Q2a, queries.Q2c, queries.Q5},
				InstancesPerScale: 1,
				Seed:              99,
				Mode:              StreamingMode,
				Validate:          true,
				MaxUpsamplePixels: 1 << 22,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, qr := range report.Queries {
				if qr.Unsupported {
					if tc.name != "noscopelike" {
						t.Errorf("%s reports %s unsupported", tc.name, qr.Query)
					}
					continue
				}
				if qr.Completed != qr.BatchSize {
					t.Errorf("%s %s: completed %d of %d", tc.name, qr.Query, qr.Completed, qr.BatchSize)
					for _, inst := range qr.Instances {
						if inst.Err != nil {
							t.Logf("  instance error: %v", inst.Err)
						}
					}
					continue
				}
				if qr.Validation.Checked > 0 && qr.Validation.PassRate() < 1 {
					t.Errorf("%s %s: validation pass rate %.2f (PSNR min %.1f)",
						tc.name, qr.Query, qr.Validation.PassRate(), qr.Validation.PSNR.Min)
					for _, inst := range qr.Instances {
						if inst.Validation != nil && inst.Validation.Err != nil {
							t.Logf("  validation error: %v", inst.Validation.Err)
						}
					}
				}
			}
		})
	}
}
