package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"malec/internal/engine"
)

// updateGolden regenerates testdata/golden_experiments.json. Run
// `go test ./internal/experiments -run TestGoldenExperiments -update` only
// after an intentional model or driver change, and review the diff: the
// file pins every driver's aggregates, not just the simulator's counters.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_experiments.json")

const goldenExperimentsPath = "testdata/golden_experiments.json"

// goldenExperiments runs every experiment driver over six benchmarks at
// 20,000 instructions on one engine, so points shared between drivers
// simulate once, and returns their exported results keyed by driver.
func goldenExperiments() map[string]any {
	opt := Options{
		Instructions: 20000,
		Seed:         1,
		Benchmarks:   []string{"gzip", "mcf", "gap", "swim", "djpeg", "h263enc"},
		Engine:       engine.New(engine.Options{}),
	}
	fig4 := Fig4(opt)
	// The grid's raw cpu.Results would make the file several times larger;
	// the normalized series derived from them are the driver's output.
	fig4.Grid = nil
	motivation := Motivation(opt)
	motivation.Fig1 = Fig1Result{} // the same Fig1(opt), pinned below
	return map[string]any{
		"Fig1":                 Fig1(opt),
		"Motivation":           motivation,
		"Fig4":                 fig4,
		"WDUComparison":        WDUComparison(opt),
		"CoverageAblation":     CoverageAblation(opt),
		"MergeContribution":    MergeContribution(opt),
		"WayConstraint":        WayConstraint(opt),
		"LatencySensitivity":   LatencySensitivity(opt),
		"ResultBusSweep":       ResultBusSweep(opt),
		"CompareLimitAblation": CompareLimitAblation(opt),
		"MergeWindowAblation":  MergeWindowAblation(opt),
		"Bypass":               Bypass(opt),
		"SegmentedWT":          SegmentedWT(opt),
	}
}

// TestGoldenExperiments pins every experiment driver's exported result at
// full precision: encoding/json writes each float in Go's shortest
// round-trip form, so any change to an aggregate, a normalization
// reference or a pooled ratio shows up as a differing line.
func TestGoldenExperiments(t *testing.T) {
	got, err := json.MarshalIndent(goldenExperiments(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenExperimentsPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenExperimentsPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenExperimentsPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", goldenExperimentsPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", goldenExperimentsPath, len(gl), len(wl))
}
