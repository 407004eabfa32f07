package trace_test

// Streaming-arena tests. They live in the external test package so they
// can read arenas through the simulator's real reader (cpu.SliceSource)
// and drive the engine, while pausing or failing the producer through the
// package's unexported per-chunk hook (export_test.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// readAll drains a reader in chunks of at most 1000 records (never
// aligned with the producer's chunks), optionally restored to pos first,
// and reports the first record differing from want[pos:].
func readAll(src *cpu.SliceSource, pos int, want []trace.Record) error {
	if pos > 0 && !src.RestoreState(cpu.SourceState{Pos: uint64(pos)}) {
		return errors.New("restore refused")
	}
	for i := pos; ; {
		recs := src.Next(1000)
		if len(recs) == 0 {
			if i != len(want) {
				return errors.New("reader ended early")
			}
			return nil
		}
		for _, rec := range recs {
			if i >= len(want) || rec != want[i] {
				return errors.New("record differs from fresh generation")
			}
			i++
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
				recs := src.Next(1000)
				if len(recs) == 0 {
					return
				}
				for _, rec := range recs {
					if rec != want[read] {
						t.Errorf("record %d differs before the failure", read)
					}
					read++
				}
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

// pollRecords is where gated producers pause after their first chunk: a
// whole number of chunks past the records an exact point can retire in
// 2^18 cycles, the cycle loop's first context poll after cycle 0, at the
// core's 6-wide fetch. A cancelled point so observes its cancellation
// before it catches up with a paused producer.
const pollRecords = (6<<18/trace.ChunkRecords + 1) * trace.ChunkRecords

// cancellablePoints is the length of the cancelled exact points: the
// paused arena prefix plus some records the producer writes on release.
const cancellablePoints = pollRecords + 4*trace.ChunkRecords

// gateProducers installs a chunk hook under which every producer reports
// its start on started and waits for a token on proceed before writing
// anything, then pauses at pollRecords until release is closed. The test
// so cancels a point before the point can read a record.
func gateProducers(t *testing.T, capacity int) (started, proceed, release chan struct{}) {
	started, proceed = make(chan struct{}, capacity), make(chan struct{}, capacity)
	release = make(chan struct{})
	trace.SetChunkHook(t, func(start int) {
		switch start {
		case 0:
			started <- struct{}{}
			<-proceed
		case pollRecords:
			<-release
		}
	})
	return started, proceed, release
}

// holdsSlot fails the test unless the engine keeps running points
// simulations throughout a grace period: a cancelled point whose producer
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
		_, _, err := e.RunContext(ctx, config.MALEC(), "gzip", cancellablePoints, 1)
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
			_, _, err := e.RunContext(ctx, config.MALEC(), "gzip", cancellablePoints, seed)
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

// ckStore is a map checkpoint store that keeps every save.
type ckStore map[uint64]*cpu.Checkpoint

func (s ckStore) Load(n uint64) (*cpu.Checkpoint, bool) { ck, ok := s[n]; return ck, ok }
func (s ckStore) Save(n uint64, ck *cpu.Checkpoint)     { s[n] = ck }

// lockstepArena streams an arena whose producer pauses before every chunk
// until the reader has caught up with the watermark: each chunk boundary
// is a read that must wait. It returns a SliceSource over the arena.
func lockstepArena(t *testing.T, bench string, seed uint64, n int) *cpu.SliceSource {
	var readerAt atomic.Int64
	trace.SetChunkHook(t, func(start int) {
		for readerAt.Load() < int64(start) {
			runtime.Gosched()
		}
	})
	recs, wait := trace.NewCache(1<<20).Stream(bench, seed, n)
	return &cpu.SliceSource{Records: recs, Wait: func(i int) int {
		readerAt.Store(int64(i))
		return wait(i)
	}}
}

// TestStreamChunkedRunsMatchCompleteArena runs exact and sampled points
// from a streaming arena read in lockstep with its producer, cold (saving
// checkpoints) and warm (restoring them, which jumps the reader past the
// watermark). Each Result JSON must be byte-identical to a run over the
// complete arena, and every checkpoint must match that run's, taken at its
// own trace index.
func TestStreamChunkedRunsMatchCompleteArena(t *testing.T) {
	const n = 5*trace.ChunkRecords + 123
	points := []struct {
		cfg   config.Config
		bench string
	}{{config.Base1ldst(), "gzip"}, {config.MALEC(), "ptrchase"}}
	for _, p := range points {
		for _, sampled := range []bool{false, true} {
			cfg := p.cfg
			if sampled {
				cfg.Sampling = &config.Sampling{Warmup: 100, Detail: 400, Interval: 8000}
			}
			name := fmt.Sprintf("%s/%s/sampled=%v", cfg.Name, p.bench, sampled)
			run := func(src cpu.Source, st ckStore) []byte {
				j, err := json.Marshal(cpu.RunWithCheckpoints(cfg, p.bench, src, st))
				if err != nil {
					t.Fatal(err)
				}
				return j
			}
			wantStore := ckStore{}
			want := run(&cpu.SliceSource{Records: trace.NewGenerator(trace.Profiles[p.bench], 1).Generate(n)}, wantStore)
			store := ckStore{}
			if got := run(lockstepArena(t, p.bench, 1, n), store); !bytes.Equal(got, want) {
				t.Errorf("%s: streamed run differs from the complete arena", name)
			}
			if len(store) != len(wantStore) {
				t.Fatalf("%s: %d checkpoints, want %d", name, len(store), len(wantStore))
			}
			for k, w := range wantStore {
				g, ok := store[k]
				if !ok || g.Src == nil || g.Src.Pos != k {
					t.Fatalf("%s: checkpoint %d missing or taken at another position", name, k)
				}
				gj, _ := json.Marshal(g)
				wj, _ := json.Marshal(w)
				if !bytes.Equal(gj, wj) {
					t.Fatalf("%s: checkpoint %d differs from the complete arena's", name, k)
				}
			}
			if got := run(lockstepArena(t, p.bench, 1, n), store); !bytes.Equal(got, want) {
				t.Errorf("%s: warm streamed run differs from the complete arena", name)
			}
		}
	}
}
