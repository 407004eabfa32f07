//go:build unix

package engine

import (
	"syscall"
	"testing"
	"time"

	"malec/internal/config"
)

// BenchmarkCampaignSampledWorkers2 runs the sampled sweep of the
// benchmark's sweep-sampled workload (the five Fig. 4 configurations with
// DefaultSampling over gzip, mcf and ptrchase, 5M instructions, one seed)
// on a fresh engine with two workers and no cache directory, and reports
// the process CPU time beside the wall time: with several workers, points
// of one workload run side by side, so CPU time shows work that wall time
// hides. Run it with
//
//	go test -run '^$' -bench CampaignSampledWorkers2 -benchtime 1x -count 3 ./internal/engine
func BenchmarkCampaignSampledWorkers2(b *testing.B) {
	cfgs := config.Fig4Configs()
	for i := range cfgs {
		cfgs[i].Sampling = config.DefaultSampling()
	}
	spec := CampaignSpec{
		Configs:      cfgs,
		Benchmarks:   []string{"gzip", "mcf", "ptrchase"},
		Instructions: 5_000_000,
		Seeds:        []uint64{1},
		Workers:      2,
	}
	cpu0 := processCPU(b)
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := New(Options{Workers: 2}).RunCampaign(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((processCPU(b)-cpu0).Seconds()/float64(b.N), "cpu-s/op")
	b.ReportMetric(time.Since(t0).Seconds()/float64(b.N), "wall-s/op")
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
