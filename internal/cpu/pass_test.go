package cpu

// Tests for passes over two memory sides, which warm side by side on two
// goroutines reading one shared GenSource ring.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/trace"
)

// passConfigs returns the five Fig. 4 configurations on sched: two memory
// sides, the three baselines and the two MALEC configurations.
func passConfigs(sched *config.Sampling) []config.Config {
	cfgs := config.Fig4Configs()
	for i := range cfgs {
		cfgs[i].Sampling = sched
	}
	return cfgs
}

// passJSON encodes each result of a pass with its sampling estimate, which
// the Result encoding leaves out.
func passJSON(t *testing.T, res []Result) [][]byte {
	t.Helper()
	out := make([][]byte, len(res))
	for i, r := range res {
		out[i] = append(mustJSON(t, r), mustJSONValue(t, *r.Sampling)...)
	}
	return out
}

// quiet returns the least goroutine count over 50 ms: a goroutine an
// earlier run ended may still be on its way out.
func quiet() int {
	n := runtime.NumGoroutine()
	for range 50 {
		time.Sleep(time.Millisecond)
		n = min(n, runtime.NumGoroutine())
	}
	return n
}

// settle waits until the goroutine count is back at baseline, failing the
// test with every stack after five seconds.
func settle(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestTwoSidePassMatchesEachSide checks that a pass over both memory sides
// of the Fig. 4 grid gives every configuration the result, estimates and
// warming counts included, byte for byte, that a pass over its memory side
// alone gives. The two sides read one GenSource ring, with the default
// chunk and with 7-record chunks (a 28-record ring, so the sides wait on
// each other's releases all the time).
func TestTwoSidePassMatchesEachSide(t *testing.T) {
	cfgs := passConfigs(chunkTestSchedule())
	for _, bench := range []string{"gzip", "ptrchase"} {
		var want [][]byte
		for _, side := range [][]config.Config{cfgs[:3], cfgs[3:]} {
			res, err := RunPassContext(nil, side, bench, cancelSource(bench, 2, chunkTestRecords))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, passJSON(t, res)...)
		}
		sources := map[string]func() Source{
			"GenSource": func() Source { return cancelSource(bench, 2, chunkTestRecords) },
			"GenSource(chunk 7)": func() Source {
				s := cancelSource(bench, 2, chunkTestRecords)
				s.chunk = 7
				return s
			},
		}
		for name, src := range sources {
			res, err := RunPassContext(nil, cfgs, bench, src())
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range passJSON(t, res) {
				if !bytes.Equal(got, want[i]) {
					t.Errorf("%s/%s over a %s: two-side pass gives\n%s\none side alone\n%s", cfgs[i].Name, bench, name, got, want[i])
				}
			}
		}
	}
}

// TestPassRunsTwoGoroutines counts goroutines at every chunk a pass
// generates: a pass over two memory sides runs its second side, and a pass
// over one its source's generate-ahead helper, beside the caller's
// goroutine, and nothing more. Both leave none behind.
func TestPassRunsTwoGoroutines(t *testing.T) {
	cfgs := passConfigs(chunkTestSchedule())
	for name, side := range map[string][]config.Config{"two sides": cfgs, "one side": cfgs[3:]} {
		baseline := quiet()
		src := cancelSource("ptrchase", 1, chunkTestRecords)
		lo, hi := 1<<30, 0
		// Chunks are generated one at a time, under a claim.
		src.hook = func() {
			n := runtime.NumGoroutine()
			lo, hi = min(lo, n), max(hi, n)
		}
		if _, err := RunPassContext(nil, side, "ptrchase", src); err != nil {
			t.Fatal(err)
		}
		if lo != baseline+1 || hi != baseline+1 {
			t.Errorf("%s: %d to %d goroutines while generating, want %d (baseline %d + 1)", name, lo, hi, baseline+1, baseline)
		}
		settle(t, baseline)
	}
}

// TestPassPanicsFailThePass checks that a panic on one memory side, and a
// panic in generation, fail a two-side pass with that panic's value within
// a deadline, and that no goroutine is left blocked. The side panic comes
// from a MALEC ROB too large for the completion window, which panics at the
// side's first burst while the baselines' side reads within four 7-record
// chunks of it. The generation panic comes from a GenSource with no
// generator. TestGenSourceCloseReleasesSlots checks the release a failed
// side's reader makes.
func TestPassPanicsFailThePass(t *testing.T) {
	badROB := passConfigs(chunkTestSchedule())
	badROB[3].ROB = 5000
	cases := []struct {
		name string
		cfgs []config.Config
		src  func() Source
		want func(v any) bool
	}{
		{"side", badROB,
			func() Source {
				s := cancelSource("gzip", 1, chunkTestRecords)
				s.chunk = 7
				return s
			},
			func(v any) bool { s, ok := v.(string); return ok && strings.Contains(s, "ROB=5000 too large") }},
		{"generation", passConfigs(chunkTestSchedule()),
			func() Source { return &GenSource{N: chunkTestRecords} },
			func(v any) bool { _, ok := v.(runtime.Error); return ok }},
	}
	for _, c := range cases {
		baseline := quiet()
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			RunPassContext(context.Background(), c.cfgs, "gzip", c.src())
		}()
		select {
		case v := <-done:
			if !c.want(v) {
				t.Errorf("%s: pass panicked with %v", c.name, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the pass did not return within 10s", c.name)
		}
		settle(t, baseline)
	}
}

// TestPassCancelledMidPass cancels a two-side pass once it has generated
// its first chunk: it returns the context's error, and once it has
// returned no goroutine of it is left.
func TestPassCancelledMidPass(t *testing.T) {
	cfgs := passConfigs(&config.Sampling{Interval: 1_000_000, Warmup: 2000, Detail: 8000})
	for _, c := range []struct {
		name    string
		timeout time.Duration
		want    error
	}{
		{"cancel", time.Hour, context.Canceled},
		{"deadline", 30 * time.Millisecond, context.DeadlineExceeded},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseline := quiet()
			ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
			defer cancel()
			src := cancelSource("mcf", 2, 20_000_000)
			if c.want == context.Canceled {
				var once sync.Once
				src.hook = func() { once.Do(cancel) }
			}
			_, err := RunPassContext(ctx, cfgs, "mcf", src)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			settle(t, baseline)
		})
	}
}

// TestPassRejectsThreeSides checks that a pass takes at most MaxPassSides
// memory sides.
func TestPassRejectsThreeSides(t *testing.T) {
	cfgs := append(passConfigs(chunkTestSchedule()), config.MALECBypass())
	cfgs[5].Sampling = chunkTestSchedule()
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "at most 2 memory sides") {
			t.Fatalf("pass over three memory sides: panic %v", v)
		}
	}()
	RunPassContext(nil, cfgs, "gzip", cancelSource("gzip", 1, chunkTestRecords))
}

// TestGenSourceCloseReleasesSlots reads one GenSource with two readers of
// a 3-record-chunk ring: one reads two chunks and closes, as a failed side
// of a pass does, and the other must then read the whole trace, record for
// record, instead of waiting on the slots the closed reader held.
func TestGenSourceCloseReleasesSlots(t *testing.T) {
	const n = 1000
	want := trace.NewGenerator(trace.Profiles["gzip"], 5).Generate(n)
	s := cancelSource("gzip", 5, n)
	s.chunk = 3
	quitter, reader := &genReader{}, &genReader{}
	s.attach(quitter)
	s.attach(reader)
	quitter.Next(6)
	quitter.close()
	done := make(chan []trace.Record, 1)
	go func() {
		var got []trace.Record
		for recs := reader.Next(n); len(recs) > 0; recs = reader.Next(n) {
			got = append(got, recs...)
		}
		done <- got
	}()
	select {
	case got := <-done:
		if !slices.Equal(got, want) {
			t.Fatalf("the remaining reader read %d records, not the trace's %d", len(got), n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the remaining reader waited on the closed reader's slots")
	}
}

// TestEnergySamplesCoverTotalEnergy checks that a sampled estimate's
// energy samples are of total energy, leakage included: for every
// configuration of a pass over both memory sides, EnergyMean times
// Instructions is Energy.Total() to within one cycle's leakage, the
// rounding of the estimated cycle count.
func TestEnergySamplesCoverTotalEnergy(t *testing.T) {
	cfgs := passConfigs(chunkTestSchedule())
	res, err := RunPassContext(nil, cfgs, "gzip", cancelSource("gzip", 2, chunkTestRecords))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		leak := r.Energy.TotalLeakage() / float64(r.Cycles)
		got := r.Sampling.EnergyMean * float64(r.Instructions)
		if d := math.Abs(got - r.Energy.Total()); !(d <= leak) {
			t.Errorf("%s: EnergyMean x Instructions = %.1f pJ, Energy.Total() = %.1f pJ: %.1f apart, more than one cycle's leakage (%.3f pJ)",
				cfgs[i].Name, got, r.Energy.Total(), d, leak)
		}
	}
}
