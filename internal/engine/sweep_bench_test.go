//go:build unix

package engine

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"malec/internal/config"
)

// BenchmarkCampaignWorkers runs two of the benchmark's campaign workloads
// on a fresh engine with no cache directory and reports the process CPU
// time beside the wall time. A unit of either holds one worker slot and
// runs two goroutines in it, so one worker already keeps two cores busy
// and CPU time exceeds wall time; CPU time shows work that wall time
// hides.
//
//   - sampled: sweep-sampled's grid (the five Fig. 4 configurations with
//     DefaultSampling over gzip, mcf and ptrchase, 5M instructions, one
//     seed) at one and at two workers. Each trace is one pass that warms
//     its two memory sides on two goroutines; a second worker adds little
//     wall-time gain on a 2-core host.
//   - exact: fig4-exact's grid (the five Fig. 4 configurations over gzip,
//     mcf, art, mpeg2enc, ptrchase and tlbthrash, seeds 7 and 8, 200k
//     instructions) at one and at two workers. Each (benchmark, seed) is
//     one unit whose two lanes simulate its configurations over one shared
//     trace arena. At two workers on a 2-core host every core already
//     holds a slot, so the second lanes add runnable goroutines and live
//     machines but no core.
//
// Run it with
//
//	go test -run '^$' -bench CampaignWorkers -benchtime 1x -count 3 ./internal/engine
func BenchmarkCampaignWorkers(b *testing.B) {
	sampled := config.Fig4Configs()
	for i := range sampled {
		sampled[i].Sampling = config.DefaultSampling()
	}
	for _, c := range []struct {
		name    string
		workers []int
		spec    CampaignSpec
	}{
		{"sampled", []int{1, 2}, CampaignSpec{
			Configs:      sampled,
			Benchmarks:   []string{"gzip", "mcf", "ptrchase"},
			Instructions: 5_000_000,
			Seeds:        []uint64{1},
		}},
		{"exact", []int{1, 2}, CampaignSpec{
			Configs:      config.Fig4Configs(),
			Benchmarks:   []string{"gzip", "mcf", "art", "mpeg2enc", "ptrchase", "tlbthrash"},
			Instructions: 200_000,
			Seeds:        []uint64{7, 8},
		}},
	} {
		for _, workers := range c.workers {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				spec := c.spec
				spec.Workers = workers
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
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
