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
	"sync"
	"sync/atomic"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/faultinject"
	"malec/internal/trace"
)

// SimulateFunc computes the result of one simulation point under the
// in-flight job's context, which is cancelled once every caller has
// abandoned the key. The default runs the simulator; tests substitute
// stubs to observe scheduling and cancellation.
type SimulateFunc func(ctx context.Context, cfg config.Config, benchmark string, instructions int, seed uint64) (cpu.Result, error)

// Options configures an Engine. The zero value is usable.
type Options struct {
	// Workers bounds the number of simulations executing concurrently
	// (default: GOMAXPROCS). Requests beyond the bound queue.
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
	// CheckpointEntries bounds the in-memory warmed-checkpoint cache (zero
	// selects DefaultCheckpointEntries, negative disables checkpointing).
	// Checkpoints persist to disk alongside results when CacheDir is set;
	// they only apply to sampled simulations (Config.Sampling != nil).
	CheckpointEntries int
	// MaxPoisonedKeys bounds the poisoned-key quarantine map; when full,
	// the oldest poisoned key is forgotten (FIFO), so panic churn cannot
	// grow the map without limit. Zero selects DefaultMaxPoisonedKeys;
	// negative disables the bound.
	MaxPoisonedKeys int
	// TraceCacheRecords bounds the engine's materialized-trace cache in
	// total trace records (not bytes): the engine generates each
	// (benchmark, seed) workload once per campaign, as a finished flat
	// record arena shared by every exact configuration simulating it,
	// instead of regenerating the byte-identical trace per config.
	// Sampled points never use the cache: they generate their own trace
	// ahead of the reader. An exact point longer than the bound also runs
	// from its own generator. Zero selects DefaultTraceCacheRecords; a
	// negative value disables trace caching (every simulation generates
	// its own trace). Ignored when Simulate is set.
	TraceCacheRecords int
	// Simulate overrides the simulation function (tests only).
	Simulate SimulateFunc
}

// DefaultMaxPoisonedKeys is the default poisoned-key quarantine bound.
// A thousand distinct panicking points means something systemic, not a
// per-key record worth keeping; FIFO eviction past the bound keeps the
// map a fixed-size incident log.
const DefaultMaxPoisonedKeys = 1024

// DefaultTraceCacheRecords is the default materialized-trace cache bound:
// 8M records (128 MiB of trace arena at 16 bytes a record) holds the
// in-flight working set of any realistic exact campaign, since
// RunCampaign orders execution so that all configurations sharing one
// workload run back to back. A point generates its arena inside its
// worker slot, so at most Workers generations run at once. Sampled points
// hold no arena.
const DefaultTraceCacheRecords = 1 << 23

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
	// Simulations counts simulations actually executed.
	Simulations uint64 `json:"simulations"`
	// Entries is the current in-memory cache size.
	Entries int `json:"entries"`
	// TraceHits and TraceMisses count materialized-trace cache activity:
	// hits are simulations served from an already-generated shared trace
	// arena, misses had to generate (or extend) one. Only exact points
	// count: both stay zero for sampled points, when trace caching is
	// disabled or when a custom Simulate is installed.
	TraceHits   uint64 `json:"traceHits"`
	TraceMisses uint64 `json:"traceMisses"`
	// TraceRecords is the number of trace records currently held by the
	// materialized-trace cache.
	TraceRecords int `json:"traceRecords"`
	// QueueDepth is the number of simulations currently waiting for a
	// worker slot — the scheduler's backlog, the first number to watch
	// under load (a persistently non-zero depth means offered work
	// exceeds simulation capacity).
	QueueDepth int `json:"queueDepth"`
	// Running is the number of simulations executing right now (bounded
	// by Options.Workers).
	Running int `json:"running"`
	// CheckpointHits and CheckpointMisses count warmed-checkpoint lookups
	// at sampled-simulation window boundaries: a hit restores warm
	// memory-side state instead of re-warming the interval. Both stay zero
	// when checkpointing is disabled or no sampled simulation has run.
	CheckpointHits   uint64 `json:"checkpointHits"`
	CheckpointMisses uint64 `json:"checkpointMisses"`
	// CheckpointBytesRead and CheckpointBytesWritten count checkpoint disk
	// traffic (zero when CacheDir is unset: the in-memory store has no
	// serialization cost).
	CheckpointBytesRead    uint64 `json:"checkpointBytesRead"`
	CheckpointBytesWritten uint64 `json:"checkpointBytesWritten"`
	// Cancelled counts in-flight simulations abandoned because every
	// caller went away (client disconnects, deadlines): the job's context
	// was cancelled and the simulation stopped mid-run.
	Cancelled uint64 `json:"cancelled"`
	// Panics counts simulation panics contained as structured per-job
	// errors instead of unwinding the process.
	Panics uint64 `json:"panics"`
	// Quarantined counts poisoned keys (a panicking simulation point is
	// never re-run hot) plus corrupt disk-store and checkpoint entries
	// renamed aside with a .corrupt suffix.
	Quarantined uint64 `json:"quarantined"`
	// PoisonedKeys is the current poisoned-map size (a gauge, bounded by
	// Options.MaxPoisonedKeys).
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
// the key so a poisoned point is never re-run hot (no re-panic storm).
type SimPanicError struct {
	Key   Key
	Value any
}

// Error implements error.
func (e *SimPanicError) Error() string {
	return fmt.Sprintf("engine: simulation %s panicked: %v", e.Key, e.Value)
}

// call is one in-flight simulation. The work runs on a detached goroutine
// under its own context; callers (the initiating one and any deduplicated
// joiners) wait on done with their own contexts, so one caller's
// cancellation never poisons the result for the others. waiters counts the
// callers still interested (guarded by Engine.mu); the last one to abandon
// cancels the job.
type call struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	res     cpu.Result
	src     Source
	err     error
}

// Engine schedules, deduplicates, caches and persists simulations. It is
// safe for concurrent use.
type Engine struct {
	simulate   SimulateFunc
	cacheDir   string
	maxEntries int
	sem        chan struct{}    // bounds concurrent simulations
	traces     *trace.Cache     // shared materialized traces (nil: disabled)
	ckpts      *checkpointStore // warmed checkpoints (nil: disabled)

	// Scheduler gauges, updated outside e.mu: queued counts goroutines
	// waiting for a worker slot, running counts simulations in flight.
	queued  atomic.Int64
	running atomic.Int64

	// filesQuarantined counts corrupt result-store entries renamed aside
	// (outside e.mu: loadDisk runs on the job path).
	filesQuarantined atomic.Uint64
	// corruptPruned counts .corrupt files removed by PruneCorrupt sweeps.
	corruptPruned atomic.Uint64

	maxPoisoned int // poisoned-map bound (<= 0: unbounded)

	mu          sync.Mutex
	cache       map[Key]cpu.Result
	order       []Key // cache insertion order, for FIFO eviction
	inflight    map[Key]*call
	poisoned    map[Key]error // keys whose simulation panicked, never re-run
	poisonOrder []Key         // poisoning order, for FIFO eviction
	stats       Stats
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxPoisonedKeys == 0 {
		opts.MaxPoisonedKeys = DefaultMaxPoisonedKeys
	}
	e := &Engine{
		cacheDir:    opts.CacheDir,
		maxEntries:  opts.MaxCacheEntries,
		sem:         make(chan struct{}, opts.Workers),
		cache:       make(map[Key]cpu.Result),
		inflight:    make(map[Key]*call),
		poisoned:    make(map[Key]error),
		maxPoisoned: opts.MaxPoisonedKeys,
	}
	e.simulate = opts.Simulate
	if e.simulate == nil {
		if opts.CheckpointEntries >= 0 {
			e.ckpts = newCheckpointStore(opts.CacheDir, opts.CheckpointEntries)
		}
		bound := opts.TraceCacheRecords
		if bound == 0 {
			bound = DefaultTraceCacheRecords
		}
		if bound > 0 {
			e.traces = trace.NewCache(bound)
		}
		e.simulate = e.simulateTrace
	}
	return e
}

// simulateTrace is the default simulation function. An exact point
// within the trace budget reads its trace from the shared arena, which
// every configuration of the workload reads; on a miss the point
// generates the arena before it simulates. Every other point (a sampled
// one, which reads each record once or only its bursts, or one over the
// budget) generates its own trace ahead on a cpu.GenSource's producer, in
// a ring of a fixed size; a sampled point's checkpoints then carry the
// generator state, so a warm run restores past the fast-forwarded stretch
// without generating it.
func (e *Engine) simulateTrace(ctx context.Context, cfg config.Config, benchmark string, instructions int, seed uint64) (cpu.Result, error) {
	ck := e.checkpoints(cfg, benchmark, seed)
	if e.traces != nil && !cpu.Sampled(cfg, instructions) {
		if recs := e.traces.Records(benchmark, seed, instructions); recs != nil {
			return cpu.RunWithCheckpointsContext(ctx, cfg, benchmark, &cpu.SliceSource{Records: recs}, ck)
		}
	}
	prof, ok := trace.Profiles[benchmark]
	if !ok {
		panic(fmt.Sprintf("engine: unknown benchmark %q", benchmark))
	}
	// RunWithCheckpointsContext joins the source's producer before it
	// returns, so the worker slot bounds it.
	return cpu.RunWithCheckpointsContext(ctx, cfg, benchmark,
		&cpu.GenSource{Gen: trace.NewGenerator(prof, seed), N: instructions}, ck)
}

// Workers returns the engine's concurrent-simulation bound.
func (e *Engine) Workers() int { return cap(e.sem) }

// checkpoints returns the warmed-checkpoint view for one simulation point,
// scoped by memory-side digest so core-side config variants share entries.
// Nil when checkpointing is disabled.
func (e *Engine) checkpoints(cfg config.Config, benchmark string, seed uint64) cpu.Checkpoints {
	if e.ckpts == nil {
		return nil
	}
	return e.ckpts.scoped(MemSideDigest(cfg), benchmark, seed)
}

// store inserts a result into the in-memory cache, evicting the oldest
// entries past the bound. Caller holds e.mu.
func (e *Engine) store(key Key, res cpu.Result) {
	if _, ok := e.cache[key]; !ok {
		e.order = append(e.order, key)
	}
	e.cache[key] = res
	if e.maxEntries <= 0 {
		return
	}
	for len(e.cache) > e.maxEntries {
		oldest := e.order[0]
		e.order = e.order[1:]
		delete(e.cache, oldest)
	}
}

// RunContext returns the result of one simulation point, computing it at
// most once per key across all concurrent callers. The work runs on a
// detached goroutine: ctx cancellation detaches this caller immediately,
// and the underlying simulation is only cancelled once every caller
// interested in the key has gone away — a cancelled waiter on a deduped
// job never cancels or poisons the result for the others. A simulation
// panic is returned as *SimPanicError to every caller and the key is
// quarantined: subsequent calls fail fast without re-running it.
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
		if res, ok := e.cache[key]; ok {
			e.stats.Hits++
			e.mu.Unlock()
			return res, SourceMemory, nil
		}
		if err, ok := e.poisoned[key]; ok {
			e.mu.Unlock()
			return cpu.Result{}, "", err
		}
		if c, ok := e.inflight[key]; ok {
			e.stats.Dedup++
			c.waiters++
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
		c := &call{done: make(chan struct{}), waiters: 1}
		// The job's context is detached from the initiating caller's: it
		// is cancelled by the last waiter leaving, not by any one
		// caller's disconnect.
		jobCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c.cancel = cancel
		e.inflight[key] = c
		e.mu.Unlock()
		go e.runJob(jobCtx, c, key, cfg, benchmark, instructions, seed)
		return e.wait(ctx, c, "")
	}
}

// wait blocks until the call completes or ctx is cancelled. Abandoning
// decrements the call's waiter count; the last waiter out cancels the job.
// joinedSrc, when non-empty, overrides the served source (deduplicated
// joiners report SourceInflight regardless of where the job's result came
// from).
func (e *Engine) wait(ctx context.Context, c *call, joinedSrc Source) (cpu.Result, Source, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		e.mu.Lock()
		c.waiters--
		abandoned := c.waiters == 0
		e.mu.Unlock()
		if abandoned {
			c.cancel()
		}
		return cpu.Result{}, "", ctx.Err()
	}
	if c.err != nil {
		return cpu.Result{}, "", c.err
	}
	if joinedSrc != "" {
		return c.res, joinedSrc, nil
	}
	return c.res, c.src, nil
}

// runJob owns the key until c.done closes: it executes the point under the
// job context, publishes the outcome, and updates the caches and counters.
// Runs on its own goroutine.
func (e *Engine) runJob(ctx context.Context, c *call, key Key, cfg config.Config, benchmark string, instructions int, seed uint64) {
	defer c.cancel()
	res, src, err := e.execute(ctx, key, cfg, benchmark, instructions, seed)
	e.mu.Lock()
	delete(e.inflight, key)
	switch {
	case err == nil:
		e.store(key, res)
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
		e.poison(key, err)
	}
	c.res, c.src, c.err = res, src, err
	e.mu.Unlock()
	close(c.done)
}

// execute resolves one point: disk store first, then a worker slot and the
// simulator. The slot acquisition honors cancellation, so abandoned jobs
// never consume simulation capacity.
func (e *Engine) execute(ctx context.Context, key Key, cfg config.Config, benchmark string, instructions int, seed uint64) (cpu.Result, Source, error) {
	if res, ok := e.loadDisk(key); ok {
		return res, SourceDisk, nil
	}
	e.queued.Add(1)
	select {
	case e.sem <- struct{}{}:
		e.queued.Add(-1)
	case <-ctx.Done():
		e.queued.Add(-1)
		return cpu.Result{}, "", ctx.Err()
	}
	e.running.Add(1)
	defer func() {
		e.running.Add(-1)
		<-e.sem
	}()
	if faultinject.SimLatency.Fire() {
		t := time.NewTimer(faultinject.Latency())
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return cpu.Result{}, "", ctx.Err()
		}
	}
	res, err := e.invoke(ctx, key, cfg, benchmark, instructions, seed)
	if err != nil {
		return cpu.Result{}, "", err
	}
	e.saveDisk(key, res)
	return res, SourceSimulated, nil
}

// invoke runs the simulator with panic containment: a panicking point
// (model bug, injected fault) becomes a *SimPanicError instead of
// unwinding the worker goroutine and killing the process.
func (e *Engine) invoke(ctx context.Context, key Key, cfg config.Config, benchmark string, instructions int, seed uint64) (res cpu.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &SimPanicError{Key: key, Value: r}
		}
	}()
	if faultinject.SimPanic.Fire() {
		panic("faultinject: injected simulation panic")
	}
	return e.simulate(ctx, cfg, benchmark, instructions, seed)
}

// isCancellation reports whether err is a context cancellation or deadline
// rather than a simulation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// poison quarantines a key whose simulation panicked, evicting the oldest
// poisoned key past the bound. Caller holds e.mu.
func (e *Engine) poison(key Key, err error) {
	if _, ok := e.poisoned[key]; !ok {
		e.poisonOrder = append(e.poisonOrder, key)
	}
	e.poisoned[key] = err
	if e.maxPoisoned <= 0 {
		return
	}
	for len(e.poisoned) > e.maxPoisoned {
		oldest := e.poisonOrder[0]
		e.poisonOrder = e.poisonOrder[1:]
		delete(e.poisoned, oldest)
	}
}

// ForgetPoisoned lifts a key's quarantine so the next request re-runs it —
// the escape hatch retry logic needs when a panic was transient (an
// injected fault, a since-fixed environmental problem). Reports whether
// the key was quarantined.
func (e *Engine) ForgetPoisoned(key Key) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.poisoned[key]; !ok {
		return false
	}
	delete(e.poisoned, key)
	for i, k := range e.poisonOrder {
		if k == key {
			e.poisonOrder = append(e.poisonOrder[:i], e.poisonOrder[i+1:]...)
			break
		}
	}
	return true
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

// Cached returns the cached result for a key, if present in memory.
func (e *Engine) Cached(key Key) (cpu.Result, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, ok := e.cache[key]
	return res, ok
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	s.Entries = len(e.cache)
	s.PoisonedKeys = len(e.poisoned)
	e.mu.Unlock()
	s.CorruptPruned = e.corruptPruned.Load()
	s.QueueDepth = int(e.queued.Load())
	s.Running = int(e.running.Load())
	if e.traces != nil {
		ts := e.traces.Stats()
		s.TraceHits = ts.Hits
		s.TraceMisses = ts.Misses
		s.TraceRecords = ts.Records
	}
	if e.ckpts != nil {
		s.CheckpointHits = e.ckpts.hits.Load()
		s.CheckpointMisses = e.ckpts.misses.Load()
		s.CheckpointBytesRead = e.ckpts.bytesRead.Load()
		s.CheckpointBytesWritten = e.ckpts.bytesWritten.Load()
		s.Quarantined += e.ckpts.quarantined.Load()
	}
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

// loadDisk fetches a persisted result. A read failure (including an
// injected one) is a plain miss: the store is a cache, never a source of
// truth. A file that reads fine but fails to decode or validate is
// corrupt: it is quarantined aside with a .corrupt rename and counted, so
// a damaged entry is never re-parsed hot on every subsequent lookup.
func (e *Engine) loadDisk(key Key) (cpu.Result, bool) {
	if e.cacheDir == "" {
		return cpu.Result{}, false
	}
	path := e.diskPath(key)
	if faultinject.DiskRead.Fire() {
		return cpu.Result{}, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return cpu.Result{}, false
	}
	faultinject.DiskCorrupt.CorruptBytes(data)
	var ent diskEntry
	if err := json.Unmarshal(data, &ent); err != nil || ent.Version != DiskFormatVersion || ent.Key != key {
		if quarantineCorrupt(path) {
			e.filesQuarantined.Add(1)
		}
		return cpu.Result{}, false
	}
	return ent.Result, true
}

// quarantineCorrupt moves a damaged store entry aside so it is read (and
// fails) exactly once; the .corrupt sibling is kept for post-mortems.
// Reports whether the rename succeeded.
func quarantineCorrupt(path string) bool {
	return os.Rename(path, path+".corrupt") == nil
}

// saveDisk persists a result, writing to a temp file and renaming so a
// concurrent reader never observes a partial entry. Persistence is best
// effort: on any error the entry is simply not stored.
func (e *Engine) saveDisk(key Key, res cpu.Result) {
	if e.cacheDir == "" {
		return
	}
	if faultinject.DiskWrite.Fire() {
		return
	}
	dir := filepath.Dir(e.diskPath(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.Marshal(diskEntry{Version: DiskFormatVersion, Key: key, Result: res})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, key.filename()+".tmp*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), e.diskPath(key)); err != nil {
		os.Remove(tmp.Name())
	}
}
