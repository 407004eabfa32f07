package engine

// Robustness-substrate tests: cancellation propagation through the
// scheduler, singleflight isolation of cancelled waiters, panic
// quarantine, and corrupt-store quarantine.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/faultinject"
	"malec/internal/trace"
)

// blockingSim returns a Simulate stub that signals when entered and
// then blocks until its context is cancelled or release is closed.
func blockingSim(entered chan<- struct{}, release <-chan struct{}, calls *atomic.Int64) SimulateFunc {
	return func(ctx context.Context, cfg config.Config, b string, n int, s uint64) (cpu.Result, error) {
		calls.Add(1)
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			return cpu.Result{}, ctx.Err()
		case <-release:
			return stubResult(cfg, b, n, s), nil
		}
	}
}

func TestCancelledWaiterDoesNotPoisonResult(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls atomic.Int64
	e := New(Options{Workers: 1, Simulate: blockingSim(entered, release, &calls)})
	cfg := config.MALEC()

	type out struct {
		res cpu.Result
		src Source
		err error
	}
	leaderDone := make(chan out, 1)
	go func() {
		res, src, err := e.RunContext(context.Background(), cfg, "gzip", 1000, 1)
		leaderDone <- out{res, src, err}
	}()
	<-entered

	// A second caller joins the in-flight job, then disconnects.
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan out, 1)
	go func() {
		res, src, err := e.RunContext(waiterCtx, cfg, "gzip", 1000, 1)
		waiterDone <- out{res, src, err}
	}()
	for e.Stats().Dedup == 0 {
		runtime.Gosched()
	}
	cancelWaiter()
	w := <-waiterDone
	if !errors.Is(w.err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", w.err)
	}

	// The surviving caller still gets the real result: the waiter's
	// cancellation neither cancelled nor poisoned the shared job.
	close(release)
	l := <-leaderDone
	if l.err != nil {
		t.Fatalf("surviving caller err = %v after waiter cancel", l.err)
	}
	if l.res.Cycles == 0 || l.src != SourceSimulated {
		t.Fatalf("surviving caller got %+v from %q, want simulated stub result", l.res, l.src)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("simulate ran %d times, want 1", n)
	}
}

func TestLastWaiterCancelStopsSimulation(t *testing.T) {
	entered := make(chan struct{}, 1)
	var calls atomic.Int64
	e := New(Options{Workers: 1, Simulate: blockingSim(entered, nil, &calls)})
	cfg := config.MALEC()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := e.RunContext(ctx, cfg, "gzip", 1000, 1)
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The detached job observes the cancellation: Cancelled moves and the
	// key leaves the in-flight table, so a later caller re-runs it.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Stats().Cancelled never moved after last-waiter cancel")
		}
		runtime.Gosched()
	}
	if _, ok := e.Resident(KeyFor(cfg, "gzip", 1000, 1)); ok {
		t.Fatal("cancelled simulation left a cached result")
	}
}

func TestAlreadyCancelledContextShortCircuits(t *testing.T) {
	var calls atomic.Int64
	e := New(Options{Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		return stubResult(cfg, b, n, s)
	})})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.RunContext(ctx, config.MALEC(), "gzip", 1000, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatal("simulate ran under an already-cancelled context")
	}
}

func TestPanicQuarantinesKey(t *testing.T) {
	var calls atomic.Int64
	e := New(Options{Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		panic("simulator exploded")
	})})
	cfg := config.MALEC()

	_, _, err := e.RunContext(context.Background(), cfg, "mcf", 1000, 1)
	var pe *SimPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *SimPanicError", err)
	}
	if pe.Value != "simulator exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}

	// Repeat calls fail fast with the same structured error and never
	// re-run the poisoned point: no re-panic storm.
	_, _, err2 := e.RunContext(context.Background(), cfg, "mcf", 1000, 1)
	if !errors.As(err2, &pe) {
		t.Fatalf("repeat err = %v, want *SimPanicError", err2)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("poisoned point ran %d times, want 1", n)
	}
	st := e.Stats()
	if st.Panics != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = {Panics:%d Quarantined:%d}, want {1 1}", st.Panics, st.Quarantined)
	}
}

// TestCorruptDiskEntryQuarantined damages one disk entry at a time, in
// the result store and in the checkpoint store. The damaged file must be
// renamed aside once and counted once, the point must re-simulate (or the
// window re-warm), and a fresh engine over the same directory must then
// read the rewritten entry as a hit: the damaged bytes are gone for good,
// not re-parsed as a silent miss on every lookup.
func TestCorruptDiskEntryQuarantined(t *testing.T) {
	truncate := func(data []byte) []byte { return data[:len(data)/2] }
	results := []struct {
		name   string
		damage func(ent *diskEntry)
	}{
		{"truncated JSON", nil},
		{"wrong version", func(ent *diskEntry) { ent.Version++ }},
		{"key mismatch", func(ent *diskEntry) { ent.Key.Seed++ }},
	}
	for _, c := range results {
		t.Run("result/"+c.name, func(t *testing.T) {
			dir := t.TempDir()
			var calls atomic.Int64
			sim := plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
				calls.Add(1)
				return stubResult(cfg, b, n, s)
			})
			cfg := config.Base1ldst()
			key := KeyFor(cfg, "gzip", 1000, 1)
			e := New(Options{CacheDir: dir, Simulate: sim})
			path := e.diskPath(key)
			ent := diskEntry{Version: DiskFormatVersion, Key: key, Result: stubResult(cfg, "gzip", 1000, 1)}
			if c.damage != nil {
				c.damage(&ent)
			}
			data, err := json.Marshal(ent)
			if err != nil {
				t.Fatal(err)
			}
			if c.damage == nil {
				data = truncate(data)
			}
			if err := publish(path, data, false); err != nil {
				t.Fatal(err)
			}
			if _, src := runPoint(t, e, cfg, "gzip", 1000, 1); src != SourceSimulated {
				t.Fatalf("corrupt entry served as %v, want re-simulation", src)
			}
			checkQuarantined(t, e, path)
			e2 := New(Options{CacheDir: dir, Simulate: sim})
			if _, src := runPoint(t, e2, cfg, "gzip", 1000, 1); src != SourceDisk {
				t.Fatalf("post-quarantine entry served as %v, want disk", src)
			}
			if n := calls.Load(); n != 1 {
				t.Fatalf("simulate ran %d times, want 1", n)
			}
		})
	}

	checkpoints := []struct {
		name   string
		damage func(ent *ckDiskEntry)
	}{
		{"truncated JSON", nil},
		{"wrong version", func(ent *ckDiskEntry) { ent.Version++ }},
		{"key mismatch", func(ent *ckDiskEntry) { ent.Key.Seed++ }},
		{"null state", func(ent *ckDiskEntry) { ent.State = nil }},
		{"missing Sys", func(ent *ckDiskEntry) { ent.State.Sys = nil }},
	}
	// Three configs that differ only core-side share every checkpoint but
	// no result, so each engine below simulates and reads checkpoints.
	sampled := func(rob int) config.Config {
		cfg := config.MALEC()
		cfg.Name = fmt.Sprintf("MALEC_rob%d", rob)
		cfg.ROB = rob
		cfg.Sampling = ckTestSchedule()
		return cfg
	}
	const instructions = 60000
	for _, c := range checkpoints {
		t.Run("checkpoint/"+c.name, func(t *testing.T) {
			dir := t.TempDir()
			runPoint(t, New(Options{CacheDir: dir, Workers: 1}), sampled(64), "gzip", instructions, 1)
			paths, err := filepath.Glob(filepath.Join(dir, "v1", "ckpt", "*", "*.json"))
			if err != nil || len(paths) < 2 {
				t.Fatalf("want several checkpoint files, got %v (%v)", paths, err)
			}
			path := paths[0]
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.damage == nil {
				data = truncate(data)
			} else {
				var ent ckDiskEntry
				if err := json.Unmarshal(data, &ent); err != nil {
					t.Fatal(err)
				}
				c.damage(&ent)
				if data, err = json.Marshal(ent); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			e := New(Options{CacheDir: dir, Workers: 1})
			res, _ := runPoint(t, e, sampled(128), "gzip", instructions, 1)
			if sp := res.Sampling; sp == nil || sp.CheckpointMisses != 1 || sp.CheckpointHits != sp.Windows-1 {
				t.Fatalf("sampling %+v, want exactly the damaged window re-warmed", sp)
			}
			checkQuarantined(t, e, path)
			e2 := New(Options{CacheDir: dir, Workers: 1})
			res, _ = runPoint(t, e2, sampled(96), "gzip", instructions, 1)
			if sp := res.Sampling; sp == nil || sp.CheckpointHits != sp.Windows {
				t.Fatalf("sampling %+v, want every window restored from disk", sp)
			}
			if q := e2.Stats().Quarantined; q != 0 {
				t.Fatalf("rewritten checkpoint quarantined again: Quarantined = %d", q)
			}
		})
	}
}

// checkQuarantined checks that the damaged entry at path was renamed aside
// and counted exactly once, and that a fresh entry replaced it.
func checkQuarantined(t *testing.T, e *Engine, path string) {
	t.Helper()
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry not quarantined aside: %v", err)
	}
	if st := e.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry not rewritten after quarantine: %v", err)
	}
}

func TestCampaignContextCancellation(t *testing.T) {
	entered := make(chan struct{}, 64)
	var calls atomic.Int64
	e := New(Options{Workers: 2, Simulate: blockingSim(entered, nil, &calls)})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.RunCampaignContext(ctx, campaignSpec(2))
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled campaign did not return within 10s")
	}
}

func TestInjectedDiskWriteFaultSkipsPersist(t *testing.T) {
	faultinject.DiskWrite.Arm(1)
	defer faultinject.DiskWrite.Disarm()
	dir := t.TempDir()
	var calls atomic.Int64
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		return stubResult(cfg, b, n, s)
	}
	cfg := config.Base1ldst()

	e1 := New(Options{CacheDir: dir, Simulate: plain(sim)})
	runPoint(t, e1, cfg, "gzip", 1000, 1)
	// Nothing was persisted, so a fresh engine re-simulates.
	e2 := New(Options{CacheDir: dir, Simulate: plain(sim)})
	if _, src := runPoint(t, e2, cfg, "gzip", 1000, 1); src != SourceSimulated {
		t.Fatalf("source = %v, want re-simulation under injected write faults", src)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("simulate ran %d times, want 2", n)
	}
}

// settleGoroutines waits until the engine has counted at least cancelled
// cancelled points, runs nothing and the goroutine count is back at
// baseline: every job and producer has exited.
func settleGoroutines(t *testing.T, e *Engine, cancelled uint64, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		s := e.Stats()
		if s.Cancelled >= cancelled && s.Running == 0 && s.QueueDepth == 0 && runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("stats %+v, %d goroutines (baseline %d):\n%s",
				s, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestGenSourceProducerPanicIsSimPanicError runs exact and sampled points
// from a GenSource whose producer panics: the panic crosses to the
// reading point, the engine reports it as a *SimPanicError carrying the
// producer's value, and no goroutine is left behind.
func TestGenSourceProducerPanicIsSimPanicError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(Options{Workers: 1, Simulate: func(ctx context.Context, cfg config.Config, b string, n int, s uint64) (cpu.Result, error) {
		// With no generator, the producer panics on its first record.
		return cpu.RunWithCheckpointsContext(ctx, cfg, b, &cpu.GenSource{N: n}, nil)
	}})
	sampled := config.MALEC()
	sampled.Sampling = &config.Sampling{Warmup: 200, Detail: 800, Interval: 20000}
	for _, cfg := range []config.Config{config.MALEC(), sampled} {
		_, _, err := e.RunContext(context.Background(), cfg, "gzip", 100_000, 1)
		var pe *SimPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("sampled=%v: err = %v, want *SimPanicError", cfg.Sampling != nil, err)
		}
		if _, ok := pe.Value.(runtime.Error); !ok {
			t.Fatalf("sampled=%v: panic value %v, want the producer's runtime error", cfg.Sampling != nil, pe.Value)
		}
	}
	if s := e.Stats(); s.Panics != 2 {
		t.Fatalf("engine counted %d panics, want 2", s.Panics)
	}
	settleGoroutines(t, e, 0, baseline)
}

// TestGenSourceCancelledOverBudgetExactRun cancels a running exact point
// over the trace budget, which reads a generate-ahead GenSource: the
// caller gets context.Canceled, the point stops and joins its producer,
// and the goroutine count returns to baseline. The point counts a trace
// miss and holds no arena.
func TestGenSourceCancelledOverBudgetExactRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(Options{Workers: 1})
	e.traces = trace.NewCache(1 << 16)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := e.RunContext(ctx, config.MALEC(), "gzip", 20_000_000, 1)
		done <- err
	}()
	for e.Stats().Running == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, e, 1, baseline)
	if s := e.Stats(); s.Cancelled != 1 || s.TraceMisses != 1 || s.TraceRecords != 0 {
		t.Fatalf("stats %+v, want 1 cancelled point, 1 trace miss and no cached records", s)
	}
}
