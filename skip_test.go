package malec

import "testing"

// TestSkipTelemetryOnStressProfiles pins the property the stress suite
// exists for: on stall-dominated workloads the majority of cycles are
// fast-forwarded, and the typed telemetry counters report it.
func TestSkipTelemetryOnStressProfiles(t *testing.T) {
	for _, bench := range StressBenchmarks() {
		r := Run(MALEC(), bench, 20000, 1)
		if r.Telemetry == nil {
			t.Fatalf("%s: no telemetry attached", bench)
		}
		if rate := r.SkipRate(); rate < 0.5 {
			t.Errorf("%s: skip rate %.2f, want >= 0.5 on a stall-heavy profile", bench, rate)
		}
		if jumps := r.Telemetry.GetName("sim.skip_jumps"); jumps == 0 {
			t.Errorf("%s: skipped cycles but recorded no jumps", bench)
		}
	}
}

// measureSteadyAllocs returns the average allocations of one n-instruction
// run (setup included; the steady-state guard subtracts two measurements to
// cancel it out).
func measureSteadyAllocs(cfg Config, bench string, n int) float64 {
	return testing.AllocsPerRun(3, func() {
		r := Run(cfg, bench, n, 1)
		if r.Cycles == 0 {
			panic("empty run")
		}
	})
}

// TestSteadyStateAllocations locks in the zero-allocation cycle loop: the
// allocation delta between a 2k- and a 12k-instruction run — i.e. the cost
// of 10k additional instructions of steady-state simulation — must stay
// near zero. Construction costs (caches, rings, way tables) cancel out in
// the subtraction; the small ceiling absorbs incidental growth of
// footprint-tracking maps (page table, stream detector) as the trace
// touches new pages.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	// The cycle loop always fast-forwards idle stretches; the subtest keeps
	// the name it had when a non-skipping mode was measured alongside it.
	t.Run("skip-on", func(t *testing.T) {
		for _, bench := range []string{"gzip", "ptrchase"} {
			small := measureSteadyAllocs(MALEC(), bench, 2000)
			large := measureSteadyAllocs(MALEC(), bench, 12000)
			if delta := large - small; delta > 128 {
				t.Errorf("%s: %.0f allocs per extra 10k instructions (2k: %.0f, 12k: %.0f), want <= 128",
					bench, delta, small, large)
			}
		}
	})
}
