package engine

// Tests for sampled passes: a campaign computes each trace unit of sampled
// jobs in one pass that generates the trace once and warms each of its
// memory sides once, while every key keeps the engine's per-key contract
// (joins, cancellation, panics, retries).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/faultinject"
)

// passTestSpec is a sampled grid of the five Fig. 4 configurations, which
// fall into two memory sides (the three baselines and the two MALEC
// configurations) and so one trace unit per workload, over benchmarks x
// seeds, at three 20k-instruction windows a point.
func passTestSpec(benchmarks []string, seeds []uint64) CampaignSpec {
	cfgs := config.Fig4Configs()
	for i := range cfgs {
		cfgs[i].Sampling = &config.Sampling{Warmup: 200, Detail: 800, Interval: 20000}
	}
	return CampaignSpec{Configs: cfgs, Benchmarks: benchmarks, Instructions: 60000, Seeds: seeds}
}

// passCounts sums the campaign's reported functional-warming records and
// window-boundary checkpoint restores and misses over its sampled
// results. A pass reports them on its first configuration only, so the
// sums count each pass once.
func passCounts(c *Campaign) (warmed uint64, hits, misses int) {
	for _, r := range c.Results {
		sp := r.Result.Sampling
		if sp == nil {
			continue
		}
		warmed += sp.WarmedRecords
		hits += sp.CheckpointHits
		misses += sp.CheckpointMisses
	}
	return warmed, hits, misses
}

// TestCampaignWarmsEachGroupOnce checks that a sampled campaign runs each
// trace as one unit over both memory sides, and warms each memory side of
// each trace exactly once at every worker count: the summed WarmedRecords
// is sides x traces x instructions, and each side warms every one of its
// three windows and restores none. With a third memory side (MALECBypass)
// each trace splits into a unit of two sides and a unit of one.
func TestCampaignWarmsEachGroupOnce(t *testing.T) {
	fig4 := passTestSpec([]string{"gzip", "ptrchase"}, []uint64{1, 2})
	bypass := config.MALECBypass()
	bypass.Sampling = fig4.Configs[0].Sampling
	threeSides := fig4
	threeSides.Configs = append(slices.Clone(fig4.Configs), bypass)
	const traces = 2 * 2 // benchmarks x seeds
	for _, c := range []struct {
		name      string // subtest prefix
		spec      CampaignSpec
		sides     int
		unitSizes []int // jobs per unit of one trace, in feed order
	}{
		{"", fig4, 2, []int{5}},
		{"three-sides-", threeSides, 3, []int{5, 1}},
	} {
		units, _, _ := feedUnits(c.spec.expand())
		var sizes []int
		for _, u := range units {
			sizes = append(sizes, len(u))
		}
		if want := slices.Repeat(c.unitSizes, traces); !slices.Equal(sizes, want) {
			t.Fatalf("%sunits of %v jobs, want %v", c.name, sizes, want)
		}
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%sworkers=%d", c.name, workers), func(t *testing.T) {
				spec := c.spec
				spec.Workers = workers
				e := New(Options{Workers: workers})
				camp, err := e.RunCampaign(spec)
				if err != nil {
					t.Fatal(err)
				}
				warmed, hits, misses := passCounts(camp)
				groups := traces * c.sides
				if want := uint64(groups * spec.Instructions); warmed != want {
					t.Fatalf("campaign warmed %d records, want %d (sides x traces x instructions)", warmed, want)
				}
				if st := e.Stats(); st.Simulations != uint64(len(camp.Results)) || hits != 0 || misses != groups*3 {
					t.Fatalf("simulations %d, checkpoint hits/misses %d/%d; want %d, 0/%d",
						st.Simulations, hits, misses, len(camp.Results), groups*3)
				}
			})
		}
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRunJoinsRunningPass checks the per-key contract of a running pass: a
// RunContext for one of its keys joins the pass (Dedup, SourceInflight)
// instead of simulating, and cancelling the campaign then does not stop
// the pass, because the joined caller still waits on it. Without a joined
// caller, cancelling the campaign cancels every key of the pass. The test
// holds the engine's only worker slot, so the pass waits for it with its
// keys in flight until the test lets it run.
func TestRunJoinsRunningPass(t *testing.T) {
	spec := passTestSpec([]string{"gzip"}, []uint64{1})
	spec.Configs = spec.Configs[:3] // the baselines: one memory side
	spec.Workers = 1

	t.Run("joined", func(t *testing.T) {
		e := New(Options{Workers: 1})
		e.sem <- struct{}{}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		campErr := make(chan error, 1)
		go func() {
			_, err := e.RunCampaignContext(ctx, spec)
			campErr <- err
		}()
		waitFor(t, "the pass to queue for a worker slot", func() bool { return e.Stats().QueueDepth == 1 })

		type outcome struct {
			src Source
			err error
		}
		joined := make(chan outcome, 1)
		cfg := spec.Configs[1]
		go func() {
			_, src, err := e.RunContext(context.Background(), cfg, "gzip", spec.Instructions, 1)
			joined <- outcome{src, err}
		}()
		waitFor(t, "the run to join the pass", func() bool { return e.Stats().Dedup == 1 })
		cancel()
		if err := <-campErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled campaign returned %v", err)
		}
		<-e.sem
		got := <-joined
		if got.err != nil || got.src != SourceInflight {
			t.Fatalf("joined run: source %q, err %v; want %q and no error", got.src, got.err, SourceInflight)
		}
		// The pass runs to completion for all three keys; it publishes
		// the last one after the joined run's.
		waitFor(t, "the pass to finish", func() bool { return e.Stats().Simulations == 3 })
		if st := e.Stats(); st.Cancelled != 0 || st.Dedup != 1 {
			t.Fatalf("stats %+v: want 0 cancelled, 1 dedup", st)
		}
		for _, c := range spec.Configs {
			if _, ok := e.Resident(KeyFor(c, "gzip", spec.Instructions, 1)); !ok {
				t.Fatalf("%s: pass result not cached", c.Name)
			}
		}
	})

	t.Run("alone", func(t *testing.T) {
		e := New(Options{Workers: 1})
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		ctx, cancel := context.WithCancel(context.Background())
		campErr := make(chan error, 1)
		go func() {
			_, err := e.RunCampaignContext(ctx, spec)
			campErr <- err
		}()
		waitFor(t, "the pass to queue for a worker slot", func() bool { return e.Stats().QueueDepth == 1 })
		cancel()
		if err := <-campErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled campaign returned %v", err)
		}
		waitFor(t, "the pass to stop", func() bool { return e.Stats().Cancelled == 3 })
		if st := e.Stats(); st.Simulations != 0 || st.QueueDepth != 0 {
			t.Fatalf("stats %+v: want no simulation and no queued pass", st)
		}
	})
}

// TestPassPanicFailsEachKey checks that a panic inside a pass over both
// memory sides (here the injected simulation panic) fails every key of
// the pass with a *SimPanicError naming that key and quarantines each key,
// and that a retry re-runs the failed keys as one pass over both sides.
func TestPassPanicFailsEachKey(t *testing.T) {
	spec := passTestSpec([]string{"mcf"}, []uint64{1})
	spec.Workers = 1
	jobs := spec.expand()
	e := New(Options{Workers: 1})

	faultinject.SimPanic.Arm(1)
	defer faultinject.SimPanic.Disarm()
	failed := make(map[Key]error)
	e.runJobs(context.Background(), jobs, 1, 0, func(jr JobResult, _ int, err error) {
		failed[jr.Key] = err
	})
	faultinject.SimPanic.Disarm()
	for _, j := range jobs {
		var pe *SimPanicError
		if !errors.As(failed[j.Key], &pe) || pe.Key != j.Key {
			t.Fatalf("%s: err %v, want a *SimPanicError naming %s", j.ConfigName, failed[j.Key], j.Key)
		}
	}
	if st := e.Stats(); st.Panics != 5 || st.PoisonedKeys != 5 || st.Simulations != 0 {
		t.Fatalf("stats %+v: want 5 panics, 5 poisoned keys, 0 simulations", st)
	}

	spec.Retries = 1
	c, err := e.RunCampaign(spec)
	if err != nil {
		t.Fatalf("retried campaign: %v", err)
	}
	if got, _, _ := passCounts(c); got != 2*uint64(spec.Instructions) {
		t.Fatalf("retry warmed %d records, want %d: the keys were not re-run as one pass over both sides", got, 2*spec.Instructions)
	}
	if st := e.Stats(); st.Simulations != 5 || st.PoisonedKeys != 0 {
		t.Fatalf("stats %+v: want 5 simulations and no poisoned key", st)
	}
}

// unitLog is a Simulate stub that records the jobs of every unit it is
// called with and computes them with stubResult. While panics is above
// zero, a call takes one from it and panics instead.
type unitLog struct {
	mu     sync.Mutex
	units  [][]Job
	panics atomic.Int32
}

func (l *unitLog) simulate(ctx context.Context, jobs []Job) ([]cpu.Result, error) {
	l.mu.Lock()
	l.units = append(l.units, slices.Clone(jobs))
	l.mu.Unlock()
	if l.panics.Add(-1) >= 0 {
		panic("unit exploded")
	}
	return plain(stubResult)(ctx, jobs)
}

// keys lists the keys of jobs.
func keys(jobs []Job) []Key {
	ks := make([]Key, len(jobs))
	for i, j := range jobs {
		ks[i] = j.Key
	}
	return ks
}

// TestStubSeesTraceUnits checks that a stubbed engine running a sampled
// grid over two memory sides is called once per trace unit, with all five
// jobs of the trace: the feed a stub sees is the one the engine's own
// simulator sees.
func TestStubSeesTraceUnits(t *testing.T) {
	spec := passTestSpec([]string{"gzip", "mcf"}, []uint64{1, 2})
	var log unitLog
	e := New(Options{Workers: 2, Simulate: log.simulate})
	camp, err := e.RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.units) != 4 {
		t.Fatalf("stub called %d times, want once per trace (4)", len(log.units))
	}
	seen := make(map[Key]int)
	for _, u := range log.units {
		if len(u) != len(spec.Configs) {
			t.Fatalf("unit of %d jobs, want %d", len(u), len(spec.Configs))
		}
		for _, j := range u {
			if j.Benchmark != u[0].Benchmark || j.Seed != u[0].Seed || j.Instructions != u[0].Instructions {
				t.Fatalf("unit mixes traces: %s/%d and %s/%d", u[0].Benchmark, u[0].Seed, j.Benchmark, j.Seed)
			}
			seen[j.Key]++
		}
	}
	for _, r := range camp.Results {
		if seen[r.Key] != 1 || r.Result != stubResult(r.Config, r.Benchmark, r.Instructions, r.Seed) {
			t.Fatalf("%s: simulated %d times, result %+v", r.Key, seen[r.Key], r.Result)
		}
	}
}

// TestStubPanicFailsItsUnit checks that a stub panicking on a unit fails
// every key of that unit with a *SimPanicError naming the key, and leaves
// a key the unit did not compute alone: one configuration is resident
// beforehand, so the unit holds the other four. With a retry, the four
// failed keys are re-run as one unit and nothing else runs again.
func TestStubPanicFailsItsUnit(t *testing.T) {
	jobs := passTestSpec([]string{"mcf"}, []uint64{1}).expand()
	for _, retries := range []int{0, 1} {
		t.Run(fmt.Sprintf("retries=%d", retries), func(t *testing.T) {
			var log unitLog
			e := New(Options{Workers: 1, Simulate: log.simulate})
			runPoint(t, e, jobs[0].Config, jobs[0].Benchmark, jobs[0].Instructions, jobs[0].Seed)
			log.panics.Store(1)
			errs := make(map[Key]error)
			e.runJobs(context.Background(), jobs, 1, retries, func(jr JobResult, _ int, err error) {
				errs[jr.Key] = err
			})
			failed := keys(jobs[1:])
			want := [][]Key{keys(jobs[:1]), failed}
			if retries > 0 {
				want = append(want, failed)
			}
			var got [][]Key
			for _, u := range log.units {
				got = append(got, keys(u))
			}
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("stub units %v, want %v", got, want)
			}
			for i, j := range jobs {
				var pe *SimPanicError
				switch {
				case i == 0 || retries > 0:
					if errs[j.Key] != nil {
						t.Fatalf("%s: %v", j.ConfigName, errs[j.Key])
					}
				case !errors.As(errs[j.Key], &pe) || pe.Key != j.Key || pe.Value != "unit exploded":
					t.Fatalf("%s: err %v, want a *SimPanicError naming %s", j.ConfigName, errs[j.Key], j.Key)
				}
			}
		})
	}
}
