package cpu

import (
	"bytes"
	"testing"

	"malec/internal/config"
	"malec/internal/core"
	"malec/internal/trace"
)

// TestReusedShadowMatchesFreshShadows is the shadow-reuse differential:
// the sampled path measures every burst of a run on one shadow interface,
// which Restore returns to the burst-start state. The oracle builds a new
// interface and a new machine per burst. Over every Fig. 4 configuration
// plus a WDU and a bypass configuration, each burst must give the same
// cycles, dynamic energy and cycle-skip counts, and leave the same
// counters, meter and memory-side state, byte for byte.
func TestReusedShadowMatchesFreshShadows(t *testing.T) {
	const records = 40_000
	sch := chunkTestSchedule()
	burst, gap := sch.Warmup+sch.Detail, sch.Interval-sch.Warmup-sch.Detail
	cfgs := append(config.Fig4Configs(), config.MALECWithWDU(16), config.MALECBypass())
	midFlight := 0
	for _, cfg := range cfgs {
		for _, bench := range []string{"gzip", "ptrchase"} {
			name := cfg.Name + "/" + bench
			recs := trace.NewGenerator(trace.Profiles[bench], 1).Generate(records)
			rd := reader{src: &SliceSource{Records: recs}}
			sys := core.NewSystem(cfg)
			sys.SetWarming(true)
			buf := make([]trace.Record, burst)
			shadow, m := core.New(cfg), new(machine)
			for k := 0; k < records/sch.Interval; k++ {
				rd.read(gap, sys, nil)
				st := sys.CaptureState()
				rd.read(burst, sys, buf)

				cycles, dyn := m.measureBurst(cfg, shadow, st, &SliceSource{Records: buf}, sch.Warmup)
				fresh, fm := core.New(cfg), new(machine)
				wantCycles, wantDyn := fm.measureBurst(cfg, fresh, st, &SliceSource{Records: buf}, sch.Warmup)

				if cycles != wantCycles || dyn != wantDyn {
					t.Fatalf("%s burst %d: %d cycles, dynamic %v; fresh shadow %d, %v", name, k, cycles, dyn.Dynamic, wantCycles, wantDyn.Dynamic)
				}
				if m.skippedCycles != fm.skippedCycles || m.skipJumps != fm.skipJumps {
					t.Fatalf("%s burst %d: skipped %d cycles in %d jumps, fresh shadow %d in %d",
						name, k, m.skippedCycles, m.skipJumps, fm.skippedCycles, fm.skipJumps)
				}
				for what, pair := range map[string][2]any{
					"counters": {shadow.Counters(), fresh.Counters()},
					"energy":   {shadow.Meter().Finish(uint64(cycles)), fresh.Meter().Finish(uint64(cycles))},
					"state":    {shadow.System().CaptureState(), fresh.System().CaptureState()},
				} {
					if got, want := mustJSONValue(t, pair[0]), mustJSONValue(t, pair[1]); !bytes.Equal(got, want) {
						t.Fatalf("%s burst %d: %s after the burst not equal to a fresh shadow's", name, k, what)
					}
				}
				if !shadow.Idle() {
					midFlight++
				}
			}
		}
	}
	// Reuse only matters when a burst leaves work behind for the next
	// Restore to clear.
	if midFlight == 0 {
		t.Fatal("no burst ended with work in flight: the differential does not exercise Restore")
	}
}

// TestRunPassMatchesSingleRuns is the sampled-pass differential: one pass
// measures every configuration of a memory-side group on shadows that
// share one memory side, and each result must equal, byte for byte, the
// configuration's own sampled run, estimates and half-widths included.
// The groups vary only core-side parameters the shared memory side must
// take from whichever shadow it is bound to: the interface kind, the L1,
// TLB refill and walk latencies, and the ROB. Only the first result
// reports the pass's warming; the others report none.
func TestRunPassMatchesSingleRuns(t *testing.T) {
	sch := chunkTestSchedule()
	variant := func(c config.Config, name string, f func(*config.Config)) config.Config {
		c.Name = name
		f(&c)
		return c
	}
	groups := [][]config.Config{
		{config.Base1ldst(), config.Base2ld1st(), config.Base2ld1st1cycleL1(),
			variant(config.Base2ld1st(), "Base2_walk", func(c *config.Config) { c.TLBRefillLatency, c.WalkLatency = 5, 60 })},
		{config.MALEC(), config.MALEC3cycleL1(),
			variant(config.MALEC(), "MALEC_rob96", func(c *config.Config) { c.ROB = 96 })},
		{config.MALECBypass(), variant(config.MALECBypass(), "Bypass_walk", func(c *config.Config) { c.WalkLatency = 10 })},
	}
	for _, cfgs := range groups {
		for i := range cfgs {
			cfgs[i].Sampling = sch
		}
		for _, bench := range []string{"gzip", "ptrchase"} {
			recs := trace.NewGenerator(trace.Profiles[bench], 2).Generate(chunkTestRecords)
			got, err := RunPassContext(nil, cfgs, bench, &SliceSource{Records: recs})
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				name := cfg.Name + "/" + bench
				want := Run(cfg, bench, &SliceSource{Records: recs})
				if g, w := mustJSONValue(t, got[i]), mustJSONValue(t, want); !bytes.Equal(g, w) {
					t.Fatalf("%s: pass result differs from its own run:\n%s\n%s", name, g, w)
				}
				gs, ws := *got[i].Sampling, *want.Sampling
				if i > 0 {
					if gs.WarmedRecords != 0 || gs.CheckpointMisses != 0 {
						t.Fatalf("%s: a later config of the pass reports warming %+v", name, gs)
					}
					gs.WarmedRecords, gs.CheckpointMisses = ws.WarmedRecords, ws.CheckpointMisses
				}
				if g, w := mustJSONValue(t, gs), mustJSONValue(t, ws); !bytes.Equal(g, w) {
					t.Fatalf("%s: pass estimate %s, own run %s", name, g, w)
				}
			}
		}
	}
}
