//go:build unix

package engine

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"malec/internal/config"
)

// BenchmarkCampaignSampledWorkers2 runs the sampled sweep of the
// benchmark's sweep-sampled workload (the five Fig. 4 configurations with
// DefaultSampling over gzip, mcf and ptrchase, 5M instructions, one seed)
// on a fresh engine with no cache directory, at one and at two workers,
// and reports the process CPU time beside the wall time. Each trace is
// one unit whose pass warms its two memory sides on two goroutines, so
// one worker already keeps two cores busy and CPU time exceeds wall time
// at either worker count; a second worker adds little wall-time gain on a
// 2-core host, and CPU time shows work that wall time hides. Run it with
//
//	go test -run '^$' -bench CampaignSampledWorkers2 -benchtime 1x -count 3 ./internal/engine
func BenchmarkCampaignSampledWorkers2(b *testing.B) {
	cfgs := config.Fig4Configs()
	for i := range cfgs {
		cfgs[i].Sampling = config.DefaultSampling()
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := CampaignSpec{
				Configs:      cfgs,
				Benchmarks:   []string{"gzip", "mcf", "ptrchase"},
				Instructions: 5_000_000,
				Seeds:        []uint64{1},
				Workers:      workers,
			}
			cpu0 := processCPU(b)
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := New(Options{Workers: workers}).RunCampaign(spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric((processCPU(b)-cpu0).Seconds()/float64(b.N), "cpu-s/op")
			b.ReportMetric(time.Since(t0).Seconds()/float64(b.N), "wall-s/op")
		})
	}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
