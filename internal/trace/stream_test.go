package trace_test

// Streaming-arena tests. They live in the external test package so they
// can read arenas through the simulator's real reader (cpu.SliceSource)
// and drive the engine, while pausing or failing the producer through the
// package's unexported per-chunk hook (export_test.go).

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

// pauseAt installs a chunk hook that blocks the producer reaching record
// index at until release is closed; reached is closed when it gets there.
func pauseAt(t *testing.T, at int) (reached, release chan struct{}) {
	reached, release = make(chan struct{}), make(chan struct{})
	trace.SetChunkHook(t, func(start int) {
		if start == at {
			close(reached)
			<-release
		}
	})
	return reached, release
}

// readAll drains a reader, optionally restored to pos first, and reports
// the first record differing from want[pos:].
func readAll(src *cpu.SliceSource, pos int, want []trace.Record) error {
	if pos > 0 && !src.RestoreState(cpu.SourceState{Pos: uint64(pos)}) {
		return errors.New("restore refused")
	}
	for i := pos; ; i++ {
		rec, ok := src.Next()
		if !ok {
			if i != len(want) {
				return errors.New("reader ended early")
			}
			return nil
		}
		if i >= len(want) || rec != want[i] {
			return errors.New("record differs from fresh generation")
		}
	}
}

// TestStreamReadersDuringProduction starts readers while the producer is
// paused mid-arena: a full reader, a request joining the arena, one
// restoring past the watermark, a Records call, and an extension to a
// longer arena. Each must see exactly the fresh generator's records, and
// the joins must neither generate nor count a miss.
func TestStreamReadersDuringProduction(t *testing.T) {
	const n = 5*trace.ChunkRecords + 123
	const long = n + 3*trace.ChunkRecords + 45
	want := trace.NewGenerator(trace.Profiles["gzip"], 5).Generate(long)
	reached, release := pauseAt(t, 2*trace.ChunkRecords)

	c := trace.NewCache(1 << 20)
	recs, wait := c.Stream("gzip", 5, n)
	<-reached

	var wg sync.WaitGroup
	read := func(name string, src *cpu.SliceSource, pos int, want []trace.Record) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := readAll(src, pos, want); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	read("full reader", &cpu.SliceSource{Records: recs, Wait: wait}, 0, want[:n])
	jr, jw := c.Stream("gzip", 5, n/2)
	read("joining reader", &cpu.SliceSource{Records: jr, Wait: jw}, 0, want[:n/2])
	past := 3*trace.ChunkRecords + 7
	restored := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(restored)
		if err := readAll(&cpu.SliceSource{Records: recs, Wait: wait}, past, want[:n]); err != nil {
			t.Errorf("restoring reader: %v", err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		got := c.Records("gzip", 5, n)
		if err := readAll(&cpu.SliceSource{Records: got}, 0, want[:n]); err != nil {
			t.Errorf("Records: %v", err)
		}
	}()
	lr, lw := c.Stream("gzip", 5, long)
	read("extension reader", &cpu.SliceSource{Records: lr, Wait: lw}, 0, want)

	select {
	case <-restored:
		t.Fatal("reader restored past the watermark finished while the producer was paused")
	default:
	}
	close(release)
	wg.Wait()

	s := c.Stats()
	if s.Misses != 2 || s.Hits != 2 || s.GeneratedRecords != long {
		t.Fatalf("stats %+v, want 2 misses (arena, extension), 2 hits (join, Records), %d generated", s, long)
	}
	if s.Entries != 1 || s.Records != long {
		t.Fatalf("stats %+v, want one %d-record entry", s, long)
	}
}

// TestStreamProducerPanicReachesReaders fails the producer mid-arena:
// every reader past the watermark re-panics with the producer's value on
// its own goroutine, the broken arena leaves the cache, and the next
// request regenerates the trace.
func TestStreamProducerPanicReachesReaders(t *testing.T) {
	const n = 3 * trace.ChunkRecords
	var fail atomic.Bool
	fail.Store(true)
	trace.SetChunkHook(t, func(start int) {
		if fail.Load() && start == trace.ChunkRecords {
			panic("producer boom")
		}
	})
	c := trace.NewCache(1 << 20)
	recs, wait := c.Stream("mcf", 2, n)
	want := trace.NewGenerator(trace.Profiles["mcf"], 2).Generate(n)

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read := 0
			defer func() {
				if v := recover(); v != "producer boom" {
					t.Errorf("reader recovered %v, want the producer's panic value", v)
				}
				if read != trace.ChunkRecords {
					t.Errorf("reader got %d records before the panic, want %d", read, trace.ChunkRecords)
				}
			}()
			src := &cpu.SliceSource{Records: recs, Wait: wait}
			for {
				rec, ok := src.Next()
				if !ok {
					return
				}
				if rec != want[read] {
					t.Errorf("record %d differs before the failure", read)
				}
				read++
			}
		}()
	}
	wg.Wait()

	if s := c.Stats(); s.Entries != 0 || s.Records != 0 {
		t.Fatalf("stats %+v: the failed arena is still cached", s)
	}
	fail.Store(false)
	if err := readAll(&cpu.SliceSource{Records: c.Records("mcf", 2, n)}, 0, want); err != nil {
		t.Fatalf("regenerated arena: %v", err)
	}
}

// TestStreamPanicIsSimPanicError drives a producer panic through the
// engine: the consuming point fails with a *SimPanicError carrying the
// producer's value, and the process (this test) survives.
func TestStreamPanicIsSimPanicError(t *testing.T) {
	trace.SetChunkHook(t, func(start int) {
		if start == trace.ChunkRecords {
			panic("producer boom")
		}
	})
	e := engine.New(engine.Options{Workers: 1})
	_, _, err := e.RunContext(context.Background(), config.MALEC(), "gzip", 3*trace.ChunkRecords, 1)
	var pe *engine.SimPanicError
	if !errors.As(err, &pe) || pe.Value != "producer boom" {
		t.Fatalf("err = %v, want *SimPanicError with the producer's value", err)
	}
	if s := e.Stats(); s.Panics != 1 {
		t.Fatalf("engine counted %d panics, want 1", s.Panics)
	}
}

// TestStreamEngineJoinMidGeneration runs a second configuration of one
// workload while the first point's producer is paused mid-arena: the
// joining point adds a trace hit, not a miss, and both points match an
// engine that generates every trace privately.
func TestStreamEngineJoinMidGeneration(t *testing.T) {
	const n = 4 * trace.ChunkRecords
	reached, release := pauseAt(t, trace.ChunkRecords)
	e := engine.New(engine.Options{Workers: 2})
	cfgs := []config.Config{config.Base1ldst(), config.MALEC()}
	got := make([]cpu.Result, len(cfgs))
	var wg sync.WaitGroup
	run := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = e.Run(cfgs[i], "gzip", n, 4)
		}()
	}
	run(0)
	<-reached
	run(1)
	for e.Stats().TraceHits == 0 {
		runtime.Gosched()
	}
	if s := e.Stats(); s.TraceMisses != 1 || s.TraceHits != 1 {
		t.Fatalf("stats %+v, want 1 trace miss and 1 hit (the mid-generation join)", s)
	}
	close(release)
	wg.Wait()

	fresh := engine.New(engine.Options{Workers: 1, TraceCacheRecords: -1})
	for i, cfg := range cfgs {
		if w := fresh.Run(cfg, "gzip", n, 4); got[i].Cycles != w.Cycles || got[i].Energy.Total() != w.Energy.Total() {
			t.Fatalf("%s: streamed run differs from private generation", cfg.Name)
		}
	}
	if s := e.Stats(); s.TraceMisses != 1 || s.TraceHits != 1 {
		t.Fatalf("stats %+v after completion, want 1 miss and 1 hit", s)
	}
}

// cancellablePoint is a sampled configuration: it polls its context once
// per window of one producer chunk, so a cancelled point stops at the
// first window boundary it reaches.
func cancellablePoint() config.Config {
	cfg := config.MALEC()
	cfg.Sampling = &config.Sampling{Warmup: 200, Detail: 800, Interval: trace.ChunkRecords}
	return cfg
}

// gateProducers installs a chunk hook under which every producer reports
// its start on started and waits for a token on proceed before writing
// anything, then pauses after its first chunk until release is closed.
// The test so cancels a point before the point can read a record.
func gateProducers(t *testing.T, capacity int) (started, proceed, release chan struct{}) {
	started, proceed = make(chan struct{}, capacity), make(chan struct{}, capacity)
	release = make(chan struct{})
	trace.SetChunkHook(t, func(start int) {
		switch start {
		case 0:
			started <- struct{}{}
			<-proceed
		case trace.ChunkRecords:
			<-release
		}
	})
	return started, proceed, release
}

// holdsSlot fails the test unless the engine keeps running points
// simulations throughout a grace period long enough for a cancelled point
// to stop at its first window boundary: a cancelled point whose producer
// is paused must keep its worker slot until the arena prefix it started
// is written. (Its caller returns at once; the job holds the slot.)
func holdsSlot(t *testing.T, e *engine.Engine, running int) {
	t.Helper()
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); runtime.Gosched() {
		if n := e.Stats().Running; n != running {
			t.Fatalf("%d points running, want %d: a cancelled point gave its slot back while its producer was paused", n, running)
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
// baseline: every job and producer has exited.
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

// TestStreamCancelledConsumerGoroutines cancels a point whose producer
// then pauses mid-arena: the point keeps its worker slot until the
// released producer has filled its bounded arena, returns
// context.Canceled, and the goroutine count returns to baseline.
func TestStreamCancelledConsumerGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	started, proceed, release := gateProducers(t, 1)
	e := engine.New(engine.Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := e.RunContext(ctx, cancellablePoint(), "gzip", 40*trace.ChunkRecords, 1)
		done <- err
	}()
	<-started
	cancel()
	proceed <- struct{}{}
	returnsCanceled(t, done)
	holdsSlot(t, e, 1)
	close(release)
	settle(t, e, 1, baseline)
	if s := e.Stats(); s.Cancelled != 1 {
		t.Fatalf("engine counted %d cancelled simulations, want 1", s.Cancelled)
	}
}

// TestStreamCancelledPointsBoundProducers sends points over distinct
// seeds one after another and cancels each once it has started a producer
// or queued for a worker slot, while every producer stays paused. The
// cancelled running points keep their slots, so the queued ones give up
// without starting a producer: no more than Workers producers (and arenas
// outside the record budget) ever exist.
func TestStreamCancelledPointsBoundProducers(t *testing.T) {
	const workers, points = 2, 8
	baseline := runtime.NumGoroutine()
	started, proceed, release := gateProducers(t, points)
	e := engine.New(engine.Options{Workers: workers})
	done := make(chan error, points)
	producers := 0
	arrive := func(seed uint64) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			_, _, err := e.RunContext(ctx, cancellablePoint(), "gzip", 4*trace.ChunkRecords, seed)
			done <- err
		}()
		for {
			select {
			case <-started:
				producers++
				cancel()
				proceed <- struct{}{}
				returnsCanceled(t, done)
				holdsSlot(t, e, producers)
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
	if producers != workers {
		t.Fatalf("%d cancelled points started producers, want %d (the worker bound)", producers, workers)
	}
	close(release)
	settle(t, e, workers, baseline)
}
