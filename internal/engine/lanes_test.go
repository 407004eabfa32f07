package engine

// Tests for exact units: a campaign's exact jobs of one trace form one
// unit, which holds one worker slot and runs on two lanes, each
// simulating the unit's next job as a unit of one and finishing its key
// at once.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
)

// exactTestSpec is an exact grid of the five Fig. 4 configurations over
// benchmarks x seeds, at 20k instructions a point, on one worker.
func exactTestSpec(benchmarks []string, seeds []uint64) CampaignSpec {
	return CampaignSpec{Configs: config.Fig4Configs(), Benchmarks: benchmarks, Instructions: 20000, Seeds: seeds, Workers: 1}
}

// TestExactUnitRunsTwoLanes checks that an exact grid on one worker forms
// one unit per (benchmark, seed) and runs each unit on two lanes: every
// stub call sees one job, two calls of one workload run at once, and no
// more than two ever do. The slot is free when the campaign returns.
func TestExactUnitRunsTwoLanes(t *testing.T) {
	spec := exactTestSpec([]string{"gzip", "mcf"}, []uint64{1, 2})
	jobs := spec.expand()
	units, _, _ := feedUnits(jobs)
	if len(units) != 4 {
		t.Fatalf("%d units, want one per (benchmark, seed) (4)", len(units))
	}
	for _, u := range units {
		if len(u) != len(spec.Configs) {
			t.Fatalf("unit of %d jobs, want %d", len(u), len(spec.Configs))
		}
		for _, i := range u {
			if jobs[i].Benchmark != jobs[u[0]].Benchmark || jobs[i].Seed != jobs[u[0]].Seed {
				t.Fatalf("unit mixes workloads: %s/%d and %s/%d", jobs[u[0]].Benchmark, jobs[u[0]].Seed, jobs[i].Benchmark, jobs[i].Seed)
			}
		}
	}

	var (
		mu      sync.Mutex
		running []workload // the workloads of the calls running now
		peak    int
		bad     []string
		both    = make(chan struct{}) // closed once two calls run at once
		once    sync.Once
	)
	sim := func(ctx context.Context, u []Job) ([]cpu.Result, error) {
		w := workload{u[0].Benchmark, u[0].Seed}
		mu.Lock()
		if len(u) != 1 {
			bad = append(bad, "a call of more than one job")
		}
		for _, r := range running {
			if r != w {
				bad = append(bad, "calls of two workloads at once")
			}
		}
		running = append(running, w)
		peak = max(peak, len(running))
		if len(running) == 2 {
			once.Do(func() { close(both) })
		}
		mu.Unlock()
		// Hold every call until two have run at once, so that a unit on
		// one lane shows as a timeout, and a little longer, so that a
		// third lane would show in peak.
		select {
		case <-both:
		case <-time.After(5 * time.Second):
			once.Do(func() { close(both) })
		}
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		running = running[:len(running)-1]
		mu.Unlock()
		return plain(stubResult)(ctx, u)
	}
	e := New(Options{Workers: 1, Simulate: sim})
	camp, err := e.RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("stub saw %v", bad)
	}
	if peak != 2 {
		t.Fatalf("at most %d calls ran at once, want 2 (one per lane)", peak)
	}
	for _, r := range camp.Results {
		if r.Result != stubResult(r.Config, r.Benchmark, r.Instructions, r.Seed) {
			t.Fatalf("%s: result %+v", r.Key, r.Result)
		}
	}
	// The last lane releases the slot before it finishes its key.
	if st := e.Stats(); st.Simulations != uint64(len(jobs)) || st.Running != 0 {
		t.Fatalf("stats %+v: want %d simulations and no slot held", st, len(jobs))
	}
}

// TestExactUnitReportsInCompletionOrder checks that a campaign reports
// each job of an exact unit as its key finishes: the unit's first job
// blocks until Progress has reported the second, which the other lane
// computes meanwhile. Waiting on the unit's jobs in unit order would hang
// until the stub's deadline.
func TestExactUnitReportsInCompletionOrder(t *testing.T) {
	spec := exactTestSpec([]string{"gzip"}, []uint64{1})
	jobs := spec.expand()
	first, second := jobs[0].Key, jobs[1].Key
	secondReported := make(chan struct{})
	spec.Progress = func(_, _ int, j Job) {
		if j.Key == second {
			close(secondReported)
		}
	}
	e := New(Options{Workers: 1, Simulate: func(ctx context.Context, u []Job) ([]cpu.Result, error) {
		if u[0].Key == first {
			select {
			case <-secondReported:
			case <-time.After(10 * time.Second):
				t.Error("the second job was not reported while the first ran")
			}
		}
		return plain(stubResult)(ctx, u)
	}})
	if _, err := e.RunCampaign(spec); err != nil {
		t.Fatal(err)
	}
}

// TestExactUnitPanicFailsOnlyItsLane checks that a panic on one lane of
// an exact unit fails only that lane's key, with a *SimPanicError naming
// it, while the other lane, mid-run when the panic comes, keeps its
// result.
func TestExactUnitPanicFailsOnlyItsLane(t *testing.T) {
	jobs := exactTestSpec([]string{"mcf"}, []uint64{1}).expand()[:2]
	entered := make(chan struct{})
	e := New(Options{Workers: 1})
	e.simulate = func(ctx context.Context, u []Job) ([]cpu.Result, error) {
		deadline := time.After(10 * time.Second)
		if u[0].Key == jobs[0].Key {
			select {
			case <-entered:
			case <-deadline:
				t.Error("the other lane never ran")
			}
			panic("lane exploded")
		}
		close(entered)
		for e.Stats().Panics == 0 {
			select {
			case <-deadline:
				t.Error("the panicking lane never finished its key")
				return nil, errors.New("timed out")
			case <-time.After(time.Millisecond):
			}
		}
		return plain(stubResult)(ctx, u)
	}
	errs := make(map[Key]error)
	results := make(map[Key]cpu.Result)
	e.runJobs(context.Background(), jobs, 1, 0, func(jr JobResult, _ int, err error) {
		errs[jr.Key], results[jr.Key] = err, jr.Result
	})
	var pe *SimPanicError
	if !errors.As(errs[jobs[0].Key], &pe) || pe.Key != jobs[0].Key || pe.Value != "lane exploded" {
		t.Fatalf("panicking lane: err %v, want a *SimPanicError naming %s", errs[jobs[0].Key], jobs[0].Key)
	}
	j := jobs[1]
	if errs[j.Key] != nil || results[j.Key] != stubResult(j.Config, j.Benchmark, j.Instructions, j.Seed) {
		t.Fatalf("other lane: err %v, result %+v; want its own result", errs[j.Key], results[j.Key])
	}
	if st := e.Stats(); st.Panics != 1 || st.PoisonedKeys != 1 || st.Simulations != 1 {
		t.Fatalf("stats %+v: want 1 panic, 1 poisoned key, 1 simulation", st)
	}
}

// TestExactUnitCancelStopsBothLanes cancels a campaign while both lanes of
// its exact unit are mid-run: the campaign returns context.Canceled, both
// running keys stop, the lanes start none of the unit's other jobs, every
// key of the unit counts as cancelled, and the goroutine count returns to
// its baseline.
func TestExactUnitCancelStopsBothLanes(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const lanes = 2
	entered := make(chan struct{}, lanes)
	var calls atomic.Int64
	e := New(Options{Workers: 1, Simulate: blockingSim(entered, make(chan struct{}), &calls)})
	spec := exactTestSpec([]string{"gzip"}, []uint64{1})
	ctx, cancel := context.WithCancel(context.Background())
	campErr := make(chan error, 1)
	go func() {
		_, err := e.RunCampaignContext(ctx, spec)
		campErr <- err
	}()
	for range lanes {
		<-entered
	}
	cancel()
	if err := <-campErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	settleGoroutines(t, e, uint64(len(spec.Configs)), baseline)
	if st := e.Stats(); st.Cancelled != uint64(len(spec.Configs)) || st.Simulations != 0 || calls.Load() != lanes {
		t.Fatalf("stats %+v, %d stub calls: want %d cancelled keys, no simulation, %d calls",
			st, calls.Load(), len(spec.Configs), lanes)
	}
}

// TestExactUnitCancelAfterReportStopsBothLanes cancels a campaign from
// Progress once the first job of its exact unit is reported, while both
// lanes are blocked on later jobs: a caller that already holds a key's
// result no longer keeps the flight alive, so both lanes stop, no stub
// call starts after the cancel, the four unreported keys count as
// cancelled, and the slot and goroutines are given back.
func TestExactUnitCancelAfterReportStopsBothLanes(t *testing.T) {
	baseline := runtime.NumGoroutine()
	spec := exactTestSpec([]string{"gzip"}, []uint64{1})
	first := spec.expand()[0].Key
	const lanes = 2
	entered := make(chan struct{}, len(spec.Configs))
	var calls atomic.Int64
	blocked := blockingSim(entered, make(chan struct{}), &calls)
	e := New(Options{Workers: 1, Simulate: func(ctx context.Context, u []Job) ([]cpu.Result, error) {
		if u[0].Key == first {
			calls.Add(1)
			return plain(stubResult)(ctx, u)
		}
		return blocked(ctx, u)
	}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reported atomic.Int64
	spec.Progress = func(_, _ int, j Job) {
		if reported.Add(1) > 1 {
			return
		}
		deadline := time.After(10 * time.Second)
		for range lanes {
			select {
			case <-entered:
			case <-deadline:
				t.Error("the lanes did not both block on a later job")
			}
		}
		cancel()
	}
	if _, err := e.RunCampaignContext(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	cancelled := uint64(len(spec.Configs) - 1)
	settleGoroutines(t, e, cancelled, baseline)
	if st := e.Stats(); st.Cancelled != cancelled || st.Simulations != 1 || calls.Load() != 1+lanes {
		t.Fatalf("stats %+v, %d stub calls: want %d cancelled keys, 1 simulation, %d calls",
			st, calls.Load(), cancelled, 1+lanes)
	}
}

// TestRunContextMissAllocs pins the allocations of a stubbed RunContext
// miss, with no copy of the unit's job or call slice for runPass (14 with
// those copies).
func TestRunContextMissAllocs(t *testing.T) {
	e := New(Options{Workers: 1, MaxCacheEntries: 8, Simulate: plain(stubResult)})
	cfg := config.MALEC()
	seed := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		if _, _, err := e.RunContext(context.Background(), cfg, "gzip", 1000, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("a stubbed RunContext miss allocates %v times, want at most 12", allocs)
	}
}
