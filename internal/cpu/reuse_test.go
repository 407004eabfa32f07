package cpu

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/debug"
	"slices"
	"testing"

	"malec/internal/config"
	"malec/internal/core"
	"malec/internal/trace"
)

// reuseStep is one exact run in a sequence on one reused machine.
type reuseStep struct {
	cfg   config.Config
	bench string
	seed  uint64
}

// reuseRecords generates n records of bench's trace for seed, once per
// test, so every step reads the same trace as its fresh reference.
func reuseRecords(bench string, seed uint64, n int) []trace.Record {
	g := trace.NewGenerator(trace.Profiles[bench], seed)
	recs := make([]trace.Record, n)
	for i := range recs {
		g.Fill(&recs[i])
	}
	return recs
}

// resultBytes is a result's JSON followed by its telemetry's, which the
// JSON encoding leaves out.
func resultBytes(t *testing.T, r Result) []byte {
	t.Helper()
	return append(mustJSON(t, r), mustJSON(t, Result{Counters: r.Telemetry})...)
}

// finishedBytes is the result of m's finished run followed by the JSON of
// its memory side's state, which holds physical addresses (L1 lines, L2
// tags, TLB frames) and the page table's first-touch order: a page table
// whose frames start elsewhere gives the same results, since the L2 sees
// its sets relabelled, but not the same state.
func finishedBytes(t *testing.T, m *machine, bench string) []byte {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("capturing the memory side's state panicked: %v", v)
		}
	}()
	st, err := json.Marshal(m.iface.System().CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	return append(resultBytes(t, m.result(bench)), st...)
}

// registeredConfigs returns every preset configuration by name.
func registeredConfigs(t *testing.T) []config.Config {
	t.Helper()
	var cfgs []config.Config
	for _, name := range config.Names() {
		cfg, ok := config.Named(name)
		if !ok {
			t.Fatalf("registered name %q does not resolve", name)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestReusedMachineMatchesFresh is the differential for machine reuse: a
// sequence of exact runs on one machine, each renewed from the run before,
// gives every result, and ends in every memory-side state, byte for byte
// as a new machine over core.New does.
// The sequences repeat configurations, change the memory side back and
// forth (MALEC, Base1ldst, MALEC), follow a large footprint with a small
// one (ptrchase, then gzip) and cover every registered configuration,
// WDU, segmented way tables and bypass included, in two orders. Under the
// race detector, which CI repeats ten times, each run is shorter.
func TestReusedMachineMatchesFresh(t *testing.T) {
	n := 30000
	if raceDetector {
		n = 5000
	}
	b1, mal := config.Base1ldst(), config.MALEC()
	benches := []string{"ptrchase", "gzip", "tlbthrash", "mcf"}
	var registered, fig4 []reuseStep
	for i, cfg := range registeredConfigs(t) {
		registered = append(registered, reuseStep{cfg, benches[i%len(benches)], 1})
	}
	reversed := slices.Clone(registered)
	slices.Reverse(reversed)
	for _, cfg := range config.Fig4Configs() {
		fig4 = append(fig4, reuseStep{cfg, "ptrchase", 3}, reuseStep{cfg, "gzip", 3})
	}
	sequences := []struct {
		name  string
		steps []reuseStep
	}{
		{"memory sides", []reuseStep{
			{mal, "gzip", 1}, {b1, "gzip", 1}, {mal, "gzip", 1},
			{mal, "mcf", 2}, {mal, "mcf", 2}, {b1, "mcf", 2},
		}},
		{"large then small", []reuseStep{
			{b1, "ptrchase", 1}, {b1, "gzip", 1}, {mal, "ptrchase", 1}, {mal, "gzip", 1},
			{mal, "tlbthrash", 2}, {b1, "gzip", 2},
		}},
		{"registered", registered},
		{"registered reversed", reversed},
		{"fig4", fig4},
	}

	traces := map[reuseStep][]trace.Record{}
	for _, seq := range sequences {
		t.Run(seq.name, func(t *testing.T) {
			var m *machine
			for i, st := range seq.steps {
				key := reuseStep{bench: st.bench, seed: st.seed}
				if traces[key] == nil {
					traces[key] = reuseRecords(st.bench, st.seed, n)
				}
				recs := traces[key]
				fresh := newMachine(st.cfg, core.New(st.cfg), &SliceSource{Records: recs})
				fresh.run()
				want := finishedBytes(t, fresh, st.bench)

				src := &SliceSource{Records: recs}
				if m == nil {
					m = newMachine(st.cfg, core.New(st.cfg), src)
				} else {
					m.renew(st.cfg, src)
				}
				m.run()
				if got := finishedBytes(t, m, st.bench); !bytes.Equal(got, want) {
					t.Errorf("step %d (%s/%s/seed=%d): reused machine's result or state differs from a new machine's",
						i, st.cfg.Name, st.bench, st.seed)
				}
			}
		})
	}
}

// TestEarlierResultSurvivesReuse checks that a result owns what it returns:
// a later run on the same machine, and later runs through the pool, leave
// its bytes unchanged.
func TestEarlierResultSurvivesReuse(t *testing.T) {
	recs := reuseRecords("mcf", 4, 20000)
	cfg := config.MALEC()
	m := newMachine(cfg, core.New(cfg), &SliceSource{Records: recs})
	m.run()
	first := m.result("mcf")
	want := resultBytes(t, first)
	m.renew(config.Base2ld1st(), &SliceSource{Records: recs})
	m.run()
	if got := resultBytes(t, first); !bytes.Equal(got, want) {
		t.Fatalf("a later run on its machine changed an earlier result\n got %s\nwant %s", got, want)
	}

	pooled := Run(cfg, "mcf", &SliceSource{Records: recs})
	want = resultBytes(t, pooled)
	for _, c := range config.Fig4Configs() {
		Run(c, "mcf", &SliceSource{Records: recs})
	}
	if got := resultBytes(t, pooled); !bytes.Equal(got, want) {
		t.Fatalf("later pooled runs changed an earlier result\n got %s\nwant %s", got, want)
	}
}

// drainMachines empties the machine pool.
func drainMachines() {
	for machines.Get() != nil {
	}
}

// secondPollCancels is a context that is live at its first poll and
// cancelled from its second on, so a run is cancelled mid-run at a fixed
// cycle.
type secondPollCancels struct {
	context.Context
	polls int
}

func (c *secondPollCancels) Err() error {
	if c.polls++; c.polls > 1 {
		return context.Canceled
	}
	return nil
}

// panicSource panics once it has handed out after records.
type panicSource struct {
	SliceSource
	after int
}

func (s *panicSource) Next(max int) []trace.Record {
	if s.pos >= s.after {
		panic("panicSource: failing on purpose")
	}
	return s.SliceSource.Next(max)
}

// TestFailedRunMachineNotPooled checks that a run cancelled mid-run, or
// one that panics, keeps its machine out of the pool, and that the next
// run still matches a new machine's.
func TestFailedRunMachineNotPooled(t *testing.T) {
	cfg := config.MALEC()
	recs := reuseRecords("mcf", 5, 1_000_000)

	drainMachines()
	ctx := &secondPollCancels{Context: context.Background()}
	if _, err := RunContext(ctx, cfg, "mcf", &SliceSource{Records: recs}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled after the second poll", err)
	}
	if ctx.polls < 2 {
		t.Fatalf("run polled its context %d times, want a cancellation mid-run", ctx.polls)
	}
	if m := machines.Get(); m != nil {
		t.Fatal("a cancelled run's machine is in the pool")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the source's panic did not reach the caller")
			}
		}()
		Run(cfg, "mcf", &panicSource{SliceSource: SliceSource{Records: recs}, after: 5000})
	}()
	if m := machines.Get(); m != nil {
		t.Fatal("a panicked run's machine is in the pool")
	}

	short := recs[:20000]
	got := resultBytes(t, Run(cfg, "mcf", &SliceSource{Records: short}))
	fresh := newMachine(cfg, core.New(cfg), &SliceSource{Records: short})
	fresh.run()
	if want := resultBytes(t, fresh.result("mcf")); !bytes.Equal(got, want) {
		t.Fatalf("run after failed runs differs from a new machine's\n got %s\nwant %s", got, want)
	}
}

// raceDetector is set under -race, which changes allocation counts.
var raceDetector bool

// maxReusedRunAllocs bounds the allocations of an exact run on a pooled
// machine: the result's counters and telemetry and the main TLB's random
// source. A run that builds its machine allocates 46-79 objects.
const maxReusedRunAllocs = 3

// TestReusedRunAllocs checks that a second exact run of each Fig. 4
// configuration takes its machine from the pool and allocates at most
// maxReusedRunAllocs objects. The garbage collector is off meanwhile, since
// a collection may empty the pool.
func TestReusedRunAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	recs := reuseRecords("gzip", 6, 2000)
	src := &SliceSource{Records: recs}
	for _, cfg := range config.Fig4Configs() {
		src.pos = 0
		first := Run(cfg, "gzip", src)
		allocs := testing.AllocsPerRun(5, func() {
			src.pos = 0
			if r := Run(cfg, "gzip", src); r.Cycles != first.Cycles {
				t.Fatalf("%s: cycles %d, want %d", cfg.Name, r.Cycles, first.Cycles)
			}
		})
		if allocs > maxReusedRunAllocs {
			t.Errorf("%s: a second exact run allocates %.1f objects, want at most %d", cfg.Name, allocs, maxReusedRunAllocs)
		}
	}
}
