package main

import (
	"bytes"
	"testing"

	"malec/internal/config"
	"malec/internal/engine"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		label  string
		beyond int
	}{
		{10000, "p99.9", 10},
		{9999, "p99", 99},
		{1000, "p99", 10},
		{999, "p90", 99},
		{100, "p90", 10},
		{99, "max", 0},
		{6, "max", 0},
		{1, "max", 0},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		v, label, beyond := tail(sorted)
		if label != tc.label || beyond != tc.beyond {
			t.Errorf("n=%d: got %s with %d beyond, want %s with %d", tc.n, label, beyond, tc.label, tc.beyond)
		}
		// Samples are 1..n, so a value is its own rank: exactly beyond
		// samples lie above it.
		if want := float64(tc.n - tc.beyond); v != want {
			t.Errorf("n=%d: tail value %v, want %v", tc.n, v, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

// TestPerturbedExportFails checks that the output check rejects a campaign
// export that differs from the stored digest by one byte.
func TestPerturbedExportFails(t *testing.T) {
	eng := engine.New(engine.Options{})
	camp, err := eng.RunCampaign(engine.CampaignSpec{
		Configs:      config.Fig4Configs()[:2],
		Benchmarks:   []string{"gzip"},
		Instructions: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := camp.CSV()
	if err != nil {
		t.Fatal(err)
	}
	want := sha256Hex(csv)
	if err := checkCSV(csv, want); err != nil {
		t.Fatalf("unperturbed export rejected: %v", err)
	}
	row := bytes.IndexByte(csv, '\n') + 1
	for _, perturb := range []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)-2] ^= 1; return b },                  // last energy digit
		func(b []byte) []byte { return append(b, b[row:]...) },                // duplicated rows
		func(b []byte) []byte { return append(b[:row:row], b[len(b)-1:]...) }, // rows dropped
	} {
		bad := perturb(append([]byte(nil), csv...))
		if err := checkCSV(bad, want); err == nil {
			t.Errorf("perturbed export %q accepted", bad)
		}
	}
}

// TestReferenceCoversEverySeed checks that every workload seed selects a
// stored, current reference subset.
func TestReferenceCoversEverySeed(t *testing.T) {
	for _, c := range []*campaignWorkload{fig4Exact, sweepSampled} {
		for seed := uint64(0); seed < uint64(2*c.subsets); seed++ {
			ref, err := c.subset(seed)
			if err != nil {
				t.Fatal(err)
			}
			if c.sampled && len(ref.ExactCycles) != len(c.benchmarks)*5*c.seedsPer {
				t.Errorf("%s seed %d: %d exact reference cycles", c.name, seed, len(ref.ExactCycles))
			}
		}
	}
}
