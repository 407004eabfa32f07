package cpu

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"testing"

	"malec/internal/config"
	"malec/internal/core"
	"malec/internal/stats"
	"malec/internal/trace"
)

// runReference runs src exactly like Run, but with the cycle loop's
// reference paths selected: noSkip forces the plain cycle-by-cycle loop
// (no fast-forward over stalled cycles), scanIssue the per-cycle ROB scan
// instead of the wakeup scheduler. Production code never selects either;
// they exist as the oracles the differential tests compare against.
func runReference(cfg config.Config, benchmark string, src Source, noSkip, scanIssue bool) Result {
	m := newMachine(cfg, core.New(cfg), src)
	m.skipDisabled = noSkip
	m.wake = !scanIssue
	m.run()
	return m.result(benchmark)
}

// runCheckingStoreOrder runs src on the production loop like Run, stopping
// after every retirement (stopping and resuming is bit-identical to an
// uninterrupted run) to check the wakeup scheduler's store-order invariant:
// a store in the ready mask is the oldest unissued store.
func runCheckingStoreOrder(t *testing.T, cfg config.Config, benchmark string, src Source) Result {
	t.Helper()
	m := newMachine(cfg, core.New(cfg), src)
	for {
		m.runTo(m.retired + 1)
		for w, word := range m.readyMask {
			for ; word != 0; word &= word - 1 {
				in := &m.rob[w<<6+bits.TrailingZeros64(word)]
				if in.rec.Kind == trace.Store && m.storeSeqs[m.storeQHead&m.robMask] != in.seq {
					t.Fatalf("%s/%s cycle %d: store %d is ready behind unissued store %d",
						cfg.Name, benchmark, m.cycle, in.seq, m.storeSeqs[m.storeQHead&m.robMask])
				}
			}
		}
		if m.srcDone && m.robLen == 0 && m.iface.Pending() == 0 && m.iface.Idle() {
			return m.result(benchmark) // run returned because the machine drained
		}
	}
}

// gridPoint is one configuration x benchmark x seed simulation point.
type gridPoint struct {
	cfg   config.Config
	bench string
	seed  uint64
}

// differentialGrid is the grid the cycle-loop differentials cover: all
// three interface kinds plus the WDU and bypass extensions, over paper
// workloads and the stall-heavy stress profiles the fast-forward and the
// wakeup scheduler target (5 configs x 6 benchmarks x 2 seeds).
func differentialGrid() []gridPoint {
	configs := []config.Config{
		config.Base1ldst(),
		config.Base2ld1st(),
		config.MALEC(),
		config.MALECWithWDU(16),
		config.MALECBypass(),
	}
	benchmarks := append([]string{"gzip", "mcf", "swim"}, trace.StressBenchmarks...)
	var grid []gridPoint
	for _, c := range configs {
		for _, b := range benchmarks {
			for _, s := range []uint64{1, 2} {
				grid = append(grid, gridPoint{c, b, s})
			}
		}
	}
	return grid
}

// source returns the live generator source of one grid point.
func (g gridPoint) source(n int) Source {
	return &GenSource{Gen: trace.NewGenerator(trace.Profiles[g.bench], g.seed), N: n}
}

// mustJSON marshals a Result for byte comparison.
func mustJSON(t *testing.T, r Result) []byte {
	t.Helper()
	j, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestCycleSkipDifferential proves the event-driven fast-forward is
// semantically invisible: for every grid point the full Result JSON —
// cycles, energy (leakage included), every counter — is byte-identical
// between the production loop and the plain cycle-by-cycle oracle.
func TestCycleSkipDifferential(t *testing.T) {
	const instructions = 20000
	skipped := false
	for _, g := range differentialGrid() {
		on := Run(g.cfg, g.bench, g.source(instructions))
		off := runReference(g.cfg, g.bench, g.source(instructions), true, false)
		if !bytes.Equal(mustJSON(t, on), mustJSON(t, off)) {
			t.Errorf("%s/%s/seed=%d: skip-on result differs from skip-off (cycles %d vs %d)",
				g.cfg.Name, g.bench, g.seed, on.Cycles, off.Cycles)
		}
		if on.Telemetry.Get(stats.CtrSkippedCycles) > 0 {
			skipped = true
		}
		if got := off.Telemetry.Get(stats.CtrSkippedCycles); got != 0 {
			t.Errorf("%s/%s/seed=%d: plain loop still skipped %d cycles",
				g.cfg.Name, g.bench, g.seed, got)
		}
	}
	if !skipped {
		t.Error("no grid point skipped any cycles: fast-forward path never engaged")
	}
}

// TestWakeupSchedulerDifferential proves the wakeup scheduler (per-producer
// wakeup lists + age-ordered ready set) is semantically invisible: for
// every grid point the full Result JSON is byte-identical between the
// production issue path and the scan oracle. Cycle skipping stays enabled
// on both sides, so the test also covers the interaction of the two
// event-driven mechanisms. A stepped rerun of the production path checks
// the store-order invariant throughout and must give the same bytes.
func TestWakeupSchedulerDifferential(t *testing.T) {
	const instructions = 20000
	for _, g := range differentialGrid() {
		on := Run(g.cfg, g.bench, g.source(instructions))
		off := runReference(g.cfg, g.bench, g.source(instructions), false, true)
		if !bytes.Equal(mustJSON(t, on), mustJSON(t, off)) {
			t.Errorf("%s/%s/seed=%d: wakeup result differs from scan (cycles %d vs %d)",
				g.cfg.Name, g.bench, g.seed, on.Cycles, off.Cycles)
		}
		stepped := runCheckingStoreOrder(t, g.cfg, g.bench, g.source(instructions))
		if !bytes.Equal(mustJSON(t, on), mustJSON(t, stepped)) {
			t.Errorf("%s/%s/seed=%d: stepped result differs from Run", g.cfg.Name, g.bench, g.seed)
		}
	}
}
