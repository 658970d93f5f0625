package vcg

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/vcity"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/store_golden.sha256")

// TestStoreGolden pins the generator's output across commits: one
// digest over every stored object (clips and manifest) of a Scale 1
// dataset, per capture profile. A change to the renderer, the encoder
// or the container that moves a stored byte shows here. Regenerate —
// only when the dataset is meant to change — with
//
//	go test ./internal/vcg -run TestStoreGolden -update
//
// Pinned on amd64 only, like the render goldens (rendered colours may
// differ in the last bit where Go fuses multiply-adds).
func TestStoreGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("stored bytes are pinned on amd64 only")
	}
	const path = "testdata/store_golden.sha256"
	p := vcity.Hyperparams{Scale: 1, Width: 192, Height: 108, Duration: 0.5, FPS: 16, Seed: 5}
	var got bytes.Buffer
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"synthetic", Options{Captions: true}},
		{"recorded", Options{Captions: true, Profile: ProfileRecorded}},
	} {
		store := generateAll(t, p, c.opt)
		names := make([]string, 0, len(store))
		for name := range store {
			names = append(names, name)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, name := range names {
			fmt.Fprintf(h, "%s %d\n", name, len(store[name]))
			h.Write(store[name])
		}
		fmt.Fprintf(&got, "%x  %s\n", h.Sum(nil), c.name)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("generated stores moved (see -update in this test's comment):\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}
