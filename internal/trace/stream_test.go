package trace_test

// Shared-arena tests that need a generation to fail or pause. They live in
// the external test package so they can drive the engine, and they reach
// generation through the package's unexported hook (export_test.go).

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
	"malec/internal/engine"
	"malec/internal/trace"
)

// arenaRecords is the length of the arenas these tests generate.
const arenaRecords = 50000

// sameRecords reports whether got equals a fresh generation of the trace.
func sameRecords(got []trace.Record, bench string, seed uint64) bool {
	want := trace.NewGenerator(trace.Profiles[bench], seed).Generate(len(got))
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return len(got) > 0
}

// TestCacheGenerationPanicDropsEntry fails a generation while other
// requests for the workload wait for it: the panic reaches the generating
// caller, the broken entry leaves the cache, and the waiting requests
// regenerate the trace once, byte-identical to a fresh generator.
func TestCacheGenerationPanicDropsEntry(t *testing.T) {
	reached, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	trace.SetGenHook(t, func() {
		if calls.Add(1) == 1 {
			close(reached)
			<-release
			panic("generation boom")
		}
	})
	c := trace.NewCache(1 << 20)

	failed := make(chan any)
	go func() {
		defer func() { failed <- recover() }()
		c.Records("mcf", 2, arenaRecords)
	}()
	<-reached
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, release := c.Records("mcf", 2, arenaRecords)
			defer release()
			if !sameRecords(recs, "mcf", 2) {
				t.Error("waiting request got records that differ from fresh generation")
			}
		}()
	}
	// Give the waiting requests time to queue on the entry.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if v := <-failed; v != "generation boom" {
		t.Fatalf("generating request recovered %v, want the generation's panic value", v)
	}
	wg.Wait()

	if n := calls.Load(); n != 2 {
		t.Fatalf("%d generations, want 2 (the failed one and one regeneration)", n)
	}
	if s := c.Stats(); s.Entries != 1 || s.Records != arenaRecords || s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats %+v, want one %d-record entry, 2 misses and 1 hit", s, arenaRecords)
	}
}

// TestStreamPanicIsSimPanicError drives a generation panic through the
// engine: the point fails with a *SimPanicError carrying the panic value,
// the process (this test) survives, and the broken arena is not kept.
func TestStreamPanicIsSimPanicError(t *testing.T) {
	trace.SetGenHook(t, func() { panic("generation boom") })
	e := engine.New(engine.Options{Workers: 1})
	_, _, err := e.RunContext(context.Background(), config.MALEC(), "gzip", arenaRecords, 1)
	var pe *engine.SimPanicError
	if !errors.As(err, &pe) || pe.Value != "generation boom" {
		t.Fatalf("err = %v, want *SimPanicError with the generation's value", err)
	}
	if s := e.Stats(); s.Panics != 1 || s.TraceRecords != 0 {
		t.Fatalf("stats %+v, want 1 panic and no cached trace records", s)
	}
}

// TestStreamEngineJoinMidGeneration runs a second configuration of one
// workload while the first point's generation is paused: the second point
// waits for that generation instead of starting its own, counts a trace
// hit, and both points match cpu.RunBenchmark, which generates its trace
// privately.
func TestStreamEngineJoinMidGeneration(t *testing.T) {
	reached, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	trace.SetGenHook(t, func() {
		if calls.Add(1) == 1 {
			close(reached)
			<-release
		}
	})
	e := engine.New(engine.Options{Workers: 2})
	cfgs := []config.Config{config.Base1ldst(), config.MALEC()}
	got := make([]cpu.Result, len(cfgs))
	var wg sync.WaitGroup
	run := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], _, err = e.RunContext(context.Background(), cfgs[i], "gzip", arenaRecords, 4); err != nil {
				t.Error(err)
			}
		}()
	}
	run(0)
	<-reached
	run(1)
	for e.Stats().Running < 2 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("%d generations, want 1 shared by both points", n)
	}
	if s := e.Stats(); s.TraceMisses != 1 || s.TraceHits != 1 {
		t.Fatalf("stats %+v, want 1 trace miss and 1 hit (the joining point)", s)
	}
	for i, cfg := range cfgs {
		w := cpu.RunBenchmark(cfg, "gzip", arenaRecords, 4)
		if got[i].Cycles != w.Cycles || got[i].Energy.Total() != w.Energy.Total() {
			t.Fatalf("%s: shared-arena run differs from private generation", cfg.Name)
		}
	}
}

// pauseGenerations installs a generation hook under which every
// generation reports its start on started and then waits until release is
// closed.
func pauseGenerations(t *testing.T, capacity int) (started, release chan struct{}) {
	started, release = make(chan struct{}, capacity), make(chan struct{})
	trace.SetGenHook(t, func() {
		started <- struct{}{}
		<-release
	})
	return started, release
}

// holdsSlot fails the test unless the engine keeps running points
// simulations throughout a grace period: a cancelled point whose
// generation is paused keeps its worker slot until the generation ends.
// (Its caller returns at once; the job holds the slot.)
func holdsSlot(t *testing.T, e *engine.Engine, running int) {
	t.Helper()
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); runtime.Gosched() {
		if n := e.Stats().Running; n != running {
			t.Fatalf("%d points running, want %d: a cancelled point gave its slot back while its generation was paused", n, running)
		}
	}
}

// returnsCanceled fails the test unless a cancelled point's caller got
// context.Canceled.
func returnsCanceled(t *testing.T, done <-chan error) {
	t.Helper()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled point returned %v, want context.Canceled", err)
	}
}

// settle waits until the engine has counted at least cancelled cancelled
// simulations, runs and queues none, and the goroutine count is back at
// baseline: every job has exited.
func settle(t *testing.T, e *engine.Engine, cancelled uint64, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := e.Stats()
		if s.Cancelled >= cancelled && s.Running == 0 && s.QueueDepth == 0 && runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("stats %+v (want %d cancelled), %d goroutines (baseline %d):\n%s",
				s, cancelled, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestStreamCancelledConsumerGoroutines cancels a point whose generation
// is paused: its caller returns context.Canceled at once, the point keeps
// its worker slot until the generation ends, then stops before it
// simulates, and the goroutine count returns to baseline.
func TestStreamCancelledConsumerGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	started, release := pauseGenerations(t, 1)
	e := engine.New(engine.Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := e.RunContext(ctx, config.MALEC(), "gzip", arenaRecords, 1)
		done <- err
	}()
	<-started
	cancel()
	returnsCanceled(t, done)
	holdsSlot(t, e, 1)
	close(release)
	settle(t, e, 1, baseline)
	if s := e.Stats(); s.Cancelled != 1 || s.Simulations != 0 {
		t.Fatalf("stats %+v, want 1 cancelled simulation and none completed", s)
	}
}

// TestStreamCancelledPointsBoundProducers sends points over distinct
// seeds one after another and cancels each once it has started a
// generation or queued for a worker slot, while every generation stays
// paused. The cancelled generating points keep their slots, so the queued
// ones give up without generating: no more than Workers generations (and
// arenas being filled) ever exist at once.
func TestStreamCancelledPointsBoundProducers(t *testing.T) {
	const workers, points = 2, 8
	baseline := runtime.NumGoroutine()
	started, release := pauseGenerations(t, points)
	e := engine.New(engine.Options{Workers: workers})
	done := make(chan error, points)
	generations := 0
	arrive := func(seed uint64) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			_, _, err := e.RunContext(ctx, config.MALEC(), "gzip", arenaRecords, seed)
			done <- err
		}()
		for {
			select {
			case <-started:
				generations++
				cancel()
				returnsCanceled(t, done)
				holdsSlot(t, e, generations)
				return
			default:
			}
			if s := e.Stats(); s.QueueDepth > 0 && s.Running == workers {
				cancel()
				returnsCanceled(t, done)
				return
			}
			runtime.Gosched()
		}
	}
	for seed := uint64(1); seed <= points; seed++ {
		arrive(seed)
	}
	if generations != workers {
		t.Fatalf("%d cancelled points started generations, want %d (the worker bound)", generations, workers)
	}
	close(release)
	settle(t, e, workers, baseline)
}
