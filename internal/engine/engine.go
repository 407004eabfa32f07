// Package engine is the simulation campaign engine: a reusable layer that
// owns scheduling, caching and persistence of simulation results, so that
// experiment drivers, CLIs and the malecd service all share one notion of
// "run this simulation point".
//
// The engine provides:
//
//   - a canonical Key per simulation point (config digest + benchmark +
//     instructions + seed) with a content-addressed in-memory result cache
//     and optional JSON disk persistence sharded by key prefix;
//   - a bounded-worker scheduler with in-flight deduplication (singleflight
//     semantics: concurrent requests for the same key share one simulation);
//   - a campaign API that expands config x benchmark x seed grids into
//     jobs, streams progress callbacks, and exports results as JSON or CSV.
//
// Because the simulator is fully deterministic in (config, benchmark,
// instructions, seed), cached results are indistinguishable from fresh
// ones; repeating any experiment through a shared engine costs only map
// lookups.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/faultinject"
	"malec/internal/trace"
)

// SimulateFunc computes the results of one unit of jobs, one result per
// job in order, under the unit's flight context, which is cancelled once
// every caller has abandoned the unit's keys. The jobs share a benchmark,
// an instruction count and a seed: a campaign's sampled jobs of one trace
// are one call (feedUnits), and every exact job is a call of its own, on
// one of its unit's two lanes (runPass). The default runs the simulator;
// tests substitute stubs to observe scheduling, cancellation and panics.
type SimulateFunc func(ctx context.Context, jobs []Job) ([]cpu.Result, error)

// Options configures an Engine. The zero value is usable.
type Options struct {
	// Workers is the number of worker slots (default: GOMAXPROCS). A
	// unit, a point or a campaign's trace, holds one slot and runs at most
	// two goroutines in it; units beyond the bound queue.
	Workers int
	// CacheDir enables disk persistence of results under this directory,
	// as JSON files sharded by config-digest prefix. Results found on
	// disk are promoted into the in-memory cache. Empty disables disk
	// persistence.
	CacheDir string
	// MaxCacheEntries bounds the in-memory cache; when full, the oldest
	// entry is evicted (it remains on disk if CacheDir is set). Zero
	// means unbounded — appropriate for one-shot campaigns; long-lived
	// processes should set a bound.
	MaxCacheEntries int
	// Simulate overrides the simulation function (tests only). It sees
	// the same units the engine's own simulator does.
	Simulate SimulateFunc
}

// maxPoisonedKeys bounds the poisoned-key quarantine. A thousand
// distinct panicking points means something systemic, not a per-key
// record worth keeping; FIFO eviction past the bound keeps the map a
// fixed-size incident log.
const maxPoisonedKeys = 1024

// traceCacheRecords bounds the engine's shared trace cache in total trace
// records: 8M records (128 MiB of trace arena at 16 bytes a record) holds
// the in-flight working set of any realistic exact campaign, since
// RunCampaign orders execution so that all configurations sharing one
// workload run back to back. A point generates its arena inside its
// worker slot, so at most Workers generations run at once. Sampled points
// hold no arena, and an exact point over the bound generates its own
// trace.
const traceCacheRecords = 1 << 23

// smallCampaignRecords is the largest total arena length, in records, of
// a campaign that leaves its arenas in the trace cache when it is done:
// 1/16 of the budget, 8 MiB. A larger campaign drops each (benchmark,
// seed) arena as soon as the workload's last job has finished, so its
// footprint is the arenas in flight, not all it generated (perfbench's
// fig4-exact, 38 MB of arenas: peak RSS 71 -> 20 MB). A smaller one would
// free too little to matter, and freeing it from a small heap makes the
// garbage collector run more often (perfbench's serve-hit, 3.8 MB of
// set-up arenas: dropping them halved the heap the GC paces against,
// doubled its cycles and raised tail_ms by 80%).
//
// The split compensates for a benchmark artefact: serve-hit's tail is set
// by the GC pacing of its in-process client, so the kept arenas are
// ballast that nobody reads. The value itself is not measured: any cutoff
// between serve-hit's 240K records and fig4-exact's 2.4M passes the same
// runs, and no malecd campaign traffic was measured against it. Once
// serve-hit times the server alone, every campaign should take one path
// and this constant go (ROADMAP item 11).
const smallCampaignRecords = traceCacheRecords / 16

// Source reports where a result came from.
type Source string

// Result sources.
const (
	// SourceMemory: served from the in-memory cache.
	SourceMemory Source = "memory"
	// SourceDisk: loaded from the disk store.
	SourceDisk Source = "disk"
	// SourceInflight: attached to a simulation already in flight for the
	// same key (singleflight).
	SourceInflight Source = "inflight"
	// SourceSimulated: computed by running the simulator.
	SourceSimulated Source = "simulated"
)

// Stats is a snapshot of the engine's cache and scheduler counters.
type Stats struct {
	// Hits counts requests served from the in-memory cache.
	Hits uint64 `json:"hits"`
	// DiskHits counts requests served from the disk store.
	DiskHits uint64 `json:"diskHits"`
	// Dedup counts requests that attached to an in-flight simulation.
	Dedup uint64 `json:"dedup"`
	// Simulations counts keys computed by running the simulator.
	Simulations uint64 `json:"simulations"`
	// Entries is the current in-memory cache size.
	Entries int `json:"entries"`
	// TraceHits and TraceMisses count materialized-trace cache activity:
	// hits are simulations served from an already-generated shared trace
	// arena, misses had to generate (or extend) one. Only exact points
	// count: both stay zero for sampled points and when a custom
	// Simulate is installed.
	TraceHits   uint64 `json:"traceHits"`
	TraceMisses uint64 `json:"traceMisses"`
	// TraceRecords is the number of trace records currently held by the
	// materialized-trace cache. A campaign whose arenas together exceed
	// smallCampaignRecords drops each workload's arena once it is done
	// with it.
	TraceRecords int `json:"traceRecords"`
	// QueueDepth is the number of simulations currently waiting for a
	// worker slot — the scheduler's backlog, the first number to watch
	// under load (a persistently non-zero depth means offered work
	// exceeds simulation capacity).
	QueueDepth int `json:"queueDepth"`
	// Running is the number of worker slots held right now, one per
	// computing unit (bounded by Options.Workers).
	Running int `json:"running"`
	// CheckpointHits, CheckpointMisses and CheckpointBytesWritten are
	// always zero and have no /metrics series: the engine keeps no
	// warmed-checkpoint store, since a campaign's configurations of one
	// memory side already share their warm state in one sampled pass.
	// They remain only because perfbench reads them, and go once it
	// stops.
	CheckpointHits         uint64 `json:"checkpointHits"`
	CheckpointMisses       uint64 `json:"checkpointMisses"`
	CheckpointBytesWritten uint64 `json:"checkpointBytesWritten"`
	// Cancelled counts in-flight keys abandoned because every caller went
	// away (client disconnects, deadlines): the job's context was
	// cancelled and the simulation stopped mid-run.
	Cancelled uint64 `json:"cancelled"`
	// Panics counts keys failed by a simulation panic, contained as
	// structured per-key errors instead of unwinding the process.
	Panics uint64 `json:"panics"`
	// Quarantined counts poisoned keys (a panicking simulation point is
	// never re-run hot) plus corrupt disk-store entries renamed aside with
	// a .corrupt suffix.
	Quarantined uint64 `json:"quarantined"`
	// PoisonedKeys is the current poisoned-map size (a gauge, bounded at
	// 1024 keys; past the bound the oldest key is forgotten).
	PoisonedKeys int `json:"poisonedKeys"`
	// CorruptPruned counts .corrupt quarantine files removed by retention
	// sweeps (PruneCorrupt).
	CorruptPruned uint64 `json:"corruptPruned"`
}

// Lookups returns the total number of requests the engine has served.
func (s Stats) Lookups() uint64 {
	return s.Hits + s.DiskHits + s.Dedup + s.Simulations
}

// SimPanicError is the structured form of a contained simulation panic.
// The engine recovers worker panics instead of letting them unwind the
// process, returns this error to every caller of the key, and quarantines
// the key so a poisoned point is never re-run hot (no re-panic storm). A
// campaign whose point panics past its retries fails with this error, so
// one bad point fails the sweep, not the process hosting it.
type SimPanicError struct {
	Key   Key
	Value any
}

// Error implements error.
func (e *SimPanicError) Error() string {
	return fmt.Sprintf("engine: simulation %s panicked: %v", e.Key, e.Value)
}

// call is one in-flight key. The work runs on a detached goroutine under
// its flight's context; callers (the initiating one and any deduplicated
// joiners) wait on done with their own contexts, so one caller's
// cancellation never poisons the result for the others.
type call struct {
	done chan struct{}
	fl   *flight
	res  cpu.Result
	src  Source
	err  error
}

// flight is the cancellation scope of one running unit (runPass), which
// all the keys it computes share. waiters counts (caller, key) pairs not
// yet served or abandoned (guarded by Engine.mu); see leave. A flight of
// several keys gets each call on finished as it is finished (waitFlight).
// taken counts the unit's jobs its lanes have taken, run those whose
// simulate call has returned.
type flight struct {
	cancel   context.CancelFunc
	waiters  int
	finished chan *call
	taken    atomic.Int32
	run      atomic.Int32
}

// Engine schedules, deduplicates, caches and persists simulations. It is
// safe for concurrent use.
type Engine struct {
	simulate SimulateFunc
	cacheDir string
	sem      chan struct{} // bounds concurrent simulations
	traces   *trace.Cache  // shared materialized traces

	// Scheduler gauges, updated outside e.mu: queued counts goroutines
	// waiting for a worker slot, running counts simulations in flight.
	queued  atomic.Int64
	running atomic.Int64

	// filesQuarantined counts corrupt result entries renamed aside
	// (outside e.mu: disk reads run on the job path).
	filesQuarantined atomic.Uint64
	// corruptPruned counts .corrupt files removed by PruneCorrupt sweeps.
	corruptPruned atomic.Uint64

	mu       sync.Mutex
	results  fifo[Key, cpu.Result]
	inflight map[Key]*call
	poisoned fifo[Key, error] // keys whose simulation panicked, never re-run
	stats    Stats
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cacheDir: opts.CacheDir,
		sem:      make(chan struct{}, opts.Workers),
		results:  newFIFO[Key, cpu.Result](opts.MaxCacheEntries),
		inflight: make(map[Key]*call),
		poisoned: newFIFO[Key, error](maxPoisonedKeys),
	}
	e.traces = trace.NewCache(traceCacheRecords)
	e.simulate = opts.Simulate
	if e.simulate == nil {
		e.simulate = e.simulateUnit
	}
	return e
}

// simulateUnit is the default simulation function. An exact point within
// the trace budget reads its trace from the shared arena, which every
// configuration of the workload reads, and releases it when the run
// returns; on a miss the point generates the arena before it simulates,
// while the other lane of its unit waits. One over the budget reads a
// cpu.GenSource, whose helper generates ahead of it. A sampled unit runs
// as one pass (cpu.RunPassContext) over a GenSource: a pass over two
// memory sides warms them on two goroutines that share the source's fixed
// ring and generate into it whichever runs ahead; a pass over one side
// reads it beside the source's generate-ahead helper. RunContext and
// RunPassContext join the source's helper before they return, so the
// worker slot bounds it.
func (e *Engine) simulateUnit(ctx context.Context, jobs []Job) ([]cpu.Result, error) {
	j := &jobs[0]
	if len(jobs) > 1 || cpu.Sampled(j.Config, j.Instructions) {
		cfgs := make([]config.Config, len(jobs))
		for i := range jobs {
			cfgs[i] = jobs[i].Config
		}
		return cpu.RunPassContext(ctx, cfgs, j.Benchmark, genSource(j.Benchmark, j.Seed, j.Instructions))
	}
	var src cpu.Source
	if recs, release := e.traces.Records(j.Benchmark, j.Seed, j.Instructions); recs != nil {
		defer release()
		src = &cpu.SliceSource{Records: recs}
	} else {
		src = genSource(j.Benchmark, j.Seed, j.Instructions)
	}
	res, err := cpu.RunContext(ctx, j.Config, j.Benchmark, src)
	if err != nil {
		return nil, err
	}
	return []cpu.Result{res}, nil
}

// genSource returns a GenSource over the first instructions records of
// benchmark's trace for seed.
func genSource(benchmark string, seed uint64, instructions int) *cpu.GenSource {
	prof, ok := trace.Profiles[benchmark]
	if !ok {
		panic(fmt.Sprintf("engine: unknown benchmark %q", benchmark))
	}
	return &cpu.GenSource{Gen: trace.NewGenerator(prof, seed), N: instructions}
}

// Workers returns the engine's concurrent-simulation bound.
func (e *Engine) Workers() int { return cap(e.sem) }

// RunContext returns the result of one simulation point, computing it at
// most once per key across all concurrent callers. A miss runs the point as
// a unit of one (startPass) on a detached goroutine: ctx cancellation
// detaches this caller immediately, and the unit is only cancelled once
// every caller interested in the key has gone away — a cancelled waiter on
// a deduped key never cancels or poisons the result for the others. A
// simulation panic is returned as *SimPanicError to every caller and the
// key is quarantined: subsequent calls fail fast without re-running it.
func (e *Engine) RunContext(ctx context.Context, cfg config.Config, benchmark string, instructions int, seed uint64) (cpu.Result, Source, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := KeyFor(cfg, benchmark, instructions, seed)
	for {
		if err := ctx.Err(); err != nil {
			return cpu.Result{}, "", err
		}
		e.mu.Lock()
		if res, ok := e.results.get(key); ok {
			e.stats.Hits++
			e.mu.Unlock()
			return res, SourceMemory, nil
		}
		if err, ok := e.poisoned.get(key); ok {
			e.mu.Unlock()
			return cpu.Result{}, "", err
		}
		if c, ok := e.inflight[key]; ok {
			e.stats.Dedup++
			c.fl.waiters++
			e.mu.Unlock()
			res, src, err := e.wait(ctx, c, SourceInflight)
			if err != nil && ctx.Err() == nil && isCancellation(err) {
				// The flight died of its own cancellation: its other
				// waiters all left in the window before we joined. Our
				// context is still live, so run the point again.
				continue
			}
			return res, src, err
		}
		c := e.startPass(ctx, []Job{{Config: cfg, ConfigName: cfg.Name, Benchmark: benchmark,
			Instructions: instructions, Seed: seed, Key: key}})[0]
		e.mu.Unlock()
		if c == nil {
			continue // ctx is done: the check above returns its error
		}
		return e.wait(ctx, c, "")
	}
}

// wait blocks until the call completes or ctx is cancelled, then leaves
// the call's flight.
// joinedSrc, when non-empty, overrides the served source (deduplicated
// joiners report SourceInflight regardless of where the job's result came
// from).
func (e *Engine) wait(ctx context.Context, c *call, joinedSrc Source) (cpu.Result, Source, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		e.leave(c.fl)
		return cpu.Result{}, "", ctx.Err()
	}
	e.leave(c.fl)
	if c.err != nil {
		return cpu.Result{}, "", c.err
	}
	if joinedSrc != "" {
		return c.res, joinedSrc, nil
	}
	return c.res, c.src, nil
}

// leave drops one waiter on one key of fl, once it has the key's outcome
// or gives up on it. The last one out cancels the flight, so keys that
// nobody waits for any more are not computed.
func (e *Engine) leave(fl *flight) {
	e.mu.Lock()
	fl.waiters--
	last := fl.waiters == 0
	e.mu.Unlock()
	if last {
		fl.cancel()
	}
}

// waitFlight passes the outcome of each non-nil call of one startPass to
// got, with its index, in completion order. Once ctx is done, each call
// still running is abandoned as wait abandons it.
func (e *Engine) waitFlight(ctx context.Context, calls []*call, got func(i int, res cpu.Result, src Source, err error)) {
	first := slices.IndexFunc(calls, func(c *call) bool { return c != nil })
	if first < 0 {
		return
	}
	fl := calls[first].fl
	reported := make([]bool, len(calls))
collect:
	for n := cap(fl.finished); n > 0; n-- { // one call of each key
		select {
		case c := <-fl.finished:
			e.leave(fl)
			i := slices.Index(calls, c)
			reported[i] = true
			got(i, c.res, c.src, c.err) // finish leaves no result beside an error
		case <-ctx.Done():
			break collect
		}
	}
	// The key of a flight of one, or the keys left once ctx is done.
	for i, c := range calls {
		if c != nil && !reported[i] {
			res, src, err := e.wait(ctx, c, "")
			got(i, res, src, err)
		}
	}
}

// finish publishes one key's outcome on its call: it leaves the in-flight
// table, a result enters the cache, a panic poisons the key, and the
// counters are updated.
func (e *Engine) finish(key Key, c *call, res cpu.Result, src Source, err error) {
	e.mu.Lock()
	delete(e.inflight, key)
	switch {
	case err == nil:
		e.results.put(key, res)
		switch src {
		case SourceDisk:
			e.stats.DiskHits++
		default:
			e.stats.Simulations++
		}
	case isCancellation(err):
		e.stats.Cancelled++
	default:
		e.stats.Panics++
		e.stats.Quarantined++
		e.poisoned.put(key, err)
	}
	c.res, c.src, c.err = res, src, err
	e.mu.Unlock()
	close(c.done)
	if c.fl.finished != nil {
		c.fl.finished <- c // buffered for every key of the flight
	}
}

// acquire takes a worker slot, then sleeps any injected latency. Both
// honor cancellation, so an abandoned job never holds simulation
// capacity. A nil error must be paired with release.
func (e *Engine) acquire(ctx context.Context) error {
	e.queued.Add(1)
	select {
	case e.sem <- struct{}{}:
		e.queued.Add(-1)
	case <-ctx.Done():
		e.queued.Add(-1)
		return ctx.Err()
	}
	e.running.Add(1)
	if faultinject.SimLatency.Fire() {
		t := time.NewTimer(faultinject.Latency())
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			e.release()
			return ctx.Err()
		}
	}
	return nil
}

// release returns the worker slot acquire took.
func (e *Engine) release() {
	e.running.Add(-1)
	<-e.sem
}

// startPass launches the one flight (runPass) of a unit's jobs whose keys
// are neither resident, quarantined nor in flight, and returns each job's
// call: nil for a job it leaves to RunContext (a memory hit, a quarantined
// key or a join), and for every job once ctx is done. The flight's context
// is detached from ctx: the last waiter leaving cancels it, not any one
// caller's disconnect. runPass gets jobs and the returned calls, which it
// only reads. The caller holds e.mu, is one waiter on each call it gets,
// and must wait on every one.
func (e *Engine) startPass(ctx context.Context, jobs []Job) []*call {
	calls := make([]*call, len(jobs))
	if ctx.Err() != nil {
		return calls
	}
	var fl *flight
	for i, j := range jobs {
		_, resident := e.results.get(j.Key)
		_, poisoned := e.poisoned.get(j.Key)
		if _, running := e.inflight[j.Key]; resident || poisoned || running {
			continue
		}
		if fl == nil {
			fl = &flight{}
		}
		c := &call{done: make(chan struct{}), fl: fl}
		e.inflight[j.Key] = c
		fl.waiters++
		calls[i] = c
	}
	if fl == nil {
		return calls
	}
	if fl.waiters > 1 {
		fl.finished = make(chan *call, fl.waiters)
	}
	var jobCtx context.Context
	jobCtx, fl.cancel = context.WithCancel(context.WithoutCancel(ctx))
	go e.runPass(jobCtx, fl, jobs, calls)
	return calls
}

// runPass owns the keys of jobs with a call, one unit, until their calls
// are done: a key found on disk is served from it, and the rest are
// computed in one worker slot, whose acquisition honors cancellation. A
// sampled unit is one simulate call over all its jobs; an exact unit is
// one call per job, on two lanes (runLane), this goroutine and one more.
// Runs on its own goroutine.
func (e *Engine) runPass(ctx context.Context, fl *flight, jobs []Job, calls []*call) {
	defer fl.cancel()
	n := 0
	for i, j := range jobs {
		if calls[i] != nil {
			res, ok := e.loadDisk(j.Key)
			if !ok {
				if n != i {
					jobs[n], calls[n] = j, calls[i]
				}
				n++
				continue
			}
			e.finish(j.Key, calls[i], res, SourceDisk, nil)
		}
		if n == i {
			// The caller may be iterating jobs and calls: compact copies.
			jobs, calls = slices.Clone(jobs), slices.Clone(calls)
		}
	}
	jobs, calls = jobs[:n], calls[:n]
	if n == 0 {
		return
	}
	if err := e.acquire(ctx); err != nil {
		e.settle(jobs, calls, nil, err)
		return
	}
	step := 1
	if cpu.Sampled(jobs[0].Config, jobs[0].Instructions) {
		step = n
	}
	var other chan struct{}
	if n > step {
		other = make(chan struct{})
		go e.runLane(ctx, fl, jobs, calls, step, other)
	}
	e.runLane(ctx, fl, jobs, calls, step, nil)
	if other != nil {
		<-other
	}
}

// runLane is one lane of runPass: until the unit's jobs are all taken, it
// takes the next step of them, simulates them in one call (invokePass)
// and finishes their keys at once. The unit's last call to return releases
// the worker slot before it finishes its keys, so the slot is free once
// the unit's last key is. A panic, in the simulation or
// injected, fails every key of its call with a *SimPanicError naming that
// key. It closes done, when there is one, on return.
func (e *Engine) runLane(ctx context.Context, fl *flight, jobs []Job, calls []*call, step int, done chan<- struct{}) {
	if done != nil {
		defer close(done)
	}
	for {
		i := int(fl.taken.Add(int32(step))) - step
		if i >= len(jobs) {
			return
		}
		end := min(i+step, len(jobs))
		var results []cpu.Result
		err := ctx.Err()
		if err == nil {
			results, err = e.invokePass(ctx, jobs[i:end])
		}
		if int(fl.run.Add(int32(end-i))) == len(jobs) {
			e.release()
		}
		e.settle(jobs[i:end], calls[i:end], results, err)
	}
}

// settle finishes the keys of jobs with the outcome of one simulate call
// over them: each result is saved to disk, and invokePass's keyless
// *SimPanicError is copied for each key with its name.
func (e *Engine) settle(jobs []Job, calls []*call, results []cpu.Result, err error) {
	pe, panicked := err.(*SimPanicError)
	for i, j := range jobs {
		switch {
		case panicked:
			e.finish(j.Key, calls[i], cpu.Result{}, "", &SimPanicError{Key: j.Key, Value: pe.Value})
		case err != nil:
			e.finish(j.Key, calls[i], cpu.Result{}, "", err)
		default:
			e.saveDisk(j.Key, results[i])
			e.finish(j.Key, calls[i], results[i], SourceSimulated, nil)
		}
	}
}

// invokePass runs the simulator over jobs with panic containment: a
// panicking unit (model bug, injected fault) becomes a *SimPanicError
// without a key, which runPass copies for each key, instead of unwinding
// the goroutine and killing the process.
func (e *Engine) invokePass(ctx context.Context, jobs []Job) (res []cpu.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &SimPanicError{Value: r}
		}
	}()
	if faultinject.SimPanic.Fire() {
		panic("faultinject: injected simulation panic")
	}
	return e.simulate(ctx, jobs)
}

// isCancellation reports whether err is a context cancellation or deadline
// rather than a simulation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ForgetPoisoned lifts a key's quarantine so the next request re-runs it —
// the escape hatch retry logic needs when a panic was transient (an
// injected fault, a since-fixed environmental problem). Reports whether
// the key was quarantined.
func (e *Engine) ForgetPoisoned(key Key) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.poisoned.remove(key)
}

// PruneCorrupt removes .corrupt quarantine files under the cache dir older
// than maxAge (0 keeps everything), returning how many were removed. The
// files exist for post-mortems; a retention sweep at startup keeps them
// from accumulating forever.
func (e *Engine) PruneCorrupt(maxAge time.Duration) int {
	if e.cacheDir == "" || maxAge <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-maxAge)
	pruned := 0
	filepath.WalkDir(e.cacheDir, func(path string, d os.DirEntry, err error) error { //nolint:errcheck // best-effort sweep
		if err != nil || d.IsDir() || filepath.Ext(path) != ".corrupt" {
			return nil
		}
		info, err := d.Info()
		if err != nil || info.ModTime().After(cutoff) {
			return nil
		}
		if os.Remove(path) == nil {
			pruned++
		}
		return nil
	})
	e.corruptPruned.Add(uint64(pruned))
	return pruned
}

// Resident returns key's result if it is resident in memory, counting the
// lookup in Stats.Hits when it is. A miss counts nothing: it neither
// joins a flight nor reads the disk, so the caller goes on to RunContext.
func (e *Engine) Resident(key Key) (cpu.Result, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, ok := e.results.get(key)
	if ok {
		e.stats.Hits++
	}
	return res, ok
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	s.Entries = e.results.len()
	s.PoisonedKeys = e.poisoned.len()
	e.mu.Unlock()
	s.CorruptPruned = e.corruptPruned.Load()
	s.QueueDepth = int(e.queued.Load())
	s.Running = int(e.running.Load())
	ts := e.traces.Stats()
	s.TraceHits = ts.Hits
	s.TraceMisses = ts.Misses
	s.TraceRecords = ts.Records
	s.Quarantined += e.filesQuarantined.Load()
	return s
}

// DefaultInstructions is the instruction count used when a campaign spec
// or service request leaves it unset. Shared so the server's limit checks
// and the campaign's normalization can never disagree on the effective
// value.
const DefaultInstructions = 300000

// DiskFormatVersion stamps persisted results with both the cpu.Result
// schema and the simulator's observable semantics. Bump it whenever either
// changes (a timing-model fix, an energy-parameter change, a Result field
// rename): entries written under another version are treated as misses, so
// a stale cache can never silently stand in for fresh results.
const DiskFormatVersion = 1

// diskEntry is the on-disk representation of one cached result.
type diskEntry struct {
	Version int        `json:"version"`
	Key     Key        `json:"key"`
	Result  cpu.Result `json:"result"`
}

// diskPath returns the sharded path of a key's disk entry. The version
// directory keeps incompatible generations side by side, so a rollback
// finds its old entries intact.
func (e *Engine) diskPath(key Key) string {
	return filepath.Join(e.cacheDir, fmt.Sprintf("v%d", DiskFormatVersion), key.shard(), key.filename())
}

// loadDisk fetches a persisted result. A read failure, real or injected
// (faultinject.DiskRead), is a plain miss: the store is a cache, never a
// source of truth. A file that reads but fails to decode or to match its
// key and version (faultinject.DiskCorrupt garbles the bytes read) is
// corrupt: it is renamed aside with a .corrupt suffix and counted in
// filesQuarantined, so a damaged entry is read (and fails) exactly once
// and is kept for post-mortems.
func (e *Engine) loadDisk(key Key) (cpu.Result, bool) {
	if e.cacheDir == "" || faultinject.DiskRead.Fire() {
		return cpu.Result{}, false
	}
	path := e.diskPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return cpu.Result{}, false
	}
	faultinject.DiskCorrupt.CorruptBytes(data)
	var ent diskEntry
	if err := json.Unmarshal(data, &ent); err != nil || ent.Version != DiskFormatVersion || ent.Key != key {
		if os.Rename(path, path+".corrupt") == nil {
			e.filesQuarantined.Add(1)
		}
		return cpu.Result{}, false
	}
	return ent.Result, true
}

// saveDisk persists a result. Persistence is best effort: on any error
// the entry is simply not stored.
func (e *Engine) saveDisk(key Key, res cpu.Result) {
	if e.cacheDir == "" || faultinject.DiskWrite.Fire() {
		return
	}
	if data, err := json.Marshal(diskEntry{Version: DiskFormatVersion, Key: key, Result: res}); err == nil {
		publish(e.diskPath(key), data, false) //nolint:errcheck // best effort
	}
}
