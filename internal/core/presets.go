// Package core orchestrates the Visual Road benchmark: the pregenerated
// dataset presets (Table 2), the literature survey constants (Table 1),
// and the experiment harness that regenerates every table and figure of
// the paper's evaluation section (Table 9, Figures 5–9, §6.3, §6.4).
//
// Experiments run at "model scale" by default — reduced resolution and
// duration with the same experimental structure — because the paper's
// full configurations (hours of 4K video) are far beyond a pure-Go
// single-machine session. Every experiment accepts a Scale knob to run
// closer to the paper's configuration.
package core

import (
	"fmt"

	"repro/internal/vcity"
)

// Preset is a named dataset configuration. The six presets mirror the
// paper's Table 2 (1k/2k/4k × short/long).
type Preset struct {
	Name   string
	Params vcity.Hyperparams
}

// Presets reproduces Table 2: the pregenerated datasets users may
// report results against.
var Presets = []Preset{
	{"1k-short", vcity.Hyperparams{Scale: 2, Width: 960, Height: 540, Duration: 15 * 60, FPS: 30}},
	{"1k-long", vcity.Hyperparams{Scale: 4, Width: 960, Height: 540, Duration: 60 * 60, FPS: 30}},
	{"2k-short", vcity.Hyperparams{Scale: 2, Width: 1920, Height: 1080, Duration: 15 * 60, FPS: 30}},
	{"2k-long", vcity.Hyperparams{Scale: 4, Width: 1920, Height: 1080, Duration: 60 * 60, FPS: 30}},
	{"4k-short", vcity.Hyperparams{Scale: 2, Width: 3840, Height: 2160, Duration: 15 * 60, FPS: 30}},
	{"4k-long", vcity.Hyperparams{Scale: 4, Width: 3840, Height: 2160, Duration: 60 * 60, FPS: 30}},
}

// ModelResolution maps the paper's named resolutions to model-scale
// dimensions (1/4 linear scale).
func ModelResolution(name string) (w, h int, err error) {
	switch name {
	case "1k":
		return 240, 136, nil
	case "2k":
		return 480, 270, nil
	case "4k":
		return 960, 540, nil
	}
	return 0, 0, fmt.Errorf("core: unknown resolution %q", name)
}

// SurveyEntry is one row of Table 1: the number of distinct inputs a
// recent VDBMS used in its published evaluation.
type SurveyEntry struct {
	Name           string
	DistinctInputs string
}

// Table1 reproduces the paper's survey verbatim (static literature
// data; nothing to measure).
var Table1 = []SurveyEntry{
	{"Optasia", "3"},
	{"LightDB", "4"},
	{"Chameleon", "5"},
	{"BlazeIt", "6"},
	{"NoScope", "7"},
	{"Focus", "14"},
	{"Scanner", ">100"},
}
