package trace

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// traceKey content-addresses one materialized trace. The instruction count
// is deliberately not part of the key: the generator is prefix-stable (the
// first n records of a longer run equal an n-record run), so one arena per
// (benchmark, seed) serves every requested length as a slice prefix.
type traceKey struct {
	benchmark string
	seed      uint64
}

// genHook, when set, runs at the start of every generation, under the
// entry's lock. It is a test seam for failed and concurrent generations;
// production code never sets it.
var genHook atomic.Pointer[func()]

// traceEntry is one materialized trace: its newest (longest) arena plus
// the generator that filled it, so a longer request extends the trace from
// the existing prefix instead of regenerating from scratch.
type traceEntry struct {
	key traceKey

	// mu serializes generation for this entry (singleflight: concurrent
	// requests for one workload wait for one generation while other
	// workloads proceed in parallel). Arenas handed out remain valid until
	// released, also across later extensions, eviction and Drop.
	mu   sync.Mutex
	recs []Record
	// gen continues the trace past recs. It is nil once a generation
	// panicked: the entry has then left the cache, and a request that was
	// waiting for it looks the workload up again.
	gen *Generator
	// release is the func Records hands out with the arena: one per entry
	// rather than one per request.
	release func()

	// The cache lock guards the rest. size is the entry's share of the
	// record budget: the length of its arena, accounted before generation
	// so that eviction runs before the new arena is allocated. elem is the
	// entry's place in the LRU list. evicted marks entries already dropped
	// from the index so a concurrent extension does not re-account them;
	// dropped marks those that left through Drop, whose arena may be
	// recycled. readers counts the requests that looked the entry up and
	// have not released it yet; a dropped entry's arena is recycled only
	// once it reaches zero.
	size    int
	elem    *list.Element
	evicted bool
	dropped bool
	readers int
}

// CacheStats snapshots a trace cache's counters.
type CacheStats struct {
	// Entries and Records describe the current cache content.
	Entries int `json:"entries"`
	Records int `json:"records"`
	// Hits counts requests fully served from a cached arena; Misses
	// counts requests that had to create an entry or generate records
	// (an extension of an existing arena counts as a miss).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// GeneratedRecords and EvictedRecords count the records generated into
	// cached arenas (counted as generation starts) and the records dropped
	// by the LRU bound over the cache's lifetime.
	GeneratedRecords uint64 `json:"generatedRecords"`
	EvictedRecords   uint64 `json:"evictedRecords"`
}

// Cache is a bounded, content-addressed store of materialized benchmark
// traces, keyed by (benchmark, seed) and served as flat []Record prefixes.
// It exists so that a sweep running one workload across many machine
// configurations generates the workload's trace once and shares the same
// backing array between all simulations (the returned slices are read-only
// by convention and safe for concurrent readers). Memory is bounded by a
// total record budget with least-recently-used eviction, and a caller that
// knows a workload is finished drops it early. The backing array of the
// last dropped arena that no reader holds is kept as a spare for the next
// generation of exactly its length, so a sweep that drops each workload
// when it is done reuses one arena's storage instead of allocating one
// per workload. The spare counts against the record budget (eviction
// discards it first) but not in Stats.Records; an evicted arena is left
// to the garbage collector. Safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxRecords int
	total      int
	entries    map[traceKey]*traceEntry
	lru        *list.List // of *traceEntry, most recently used first
	spare      []Record   // recycled backing array: total+cap(spare) <= maxRecords
	hits       uint64
	misses     uint64
	generated  uint64
	evictedRec uint64
}

// NewCache returns a trace cache bounded to maxRecords total records
// across all entries. It panics on a non-positive bound.
func NewCache(maxRecords int) *Cache {
	if maxRecords <= 0 {
		panic("trace: cache record bound must be positive")
	}
	return &Cache{maxRecords: maxRecords, entries: make(map[traceKey]*traceEntry), lru: list.New()}
}

// Records returns the first n records of the named benchmark's trace for
// seed, and a func that releases them. The returned slice aliases the
// shared arena (read-only by convention) and stays valid until release is
// called, which the caller must do exactly once when it stops reading. A
// missed or too-short trace is generated before Records returns, extending
// from the existing prefix; concurrent requests for one workload wait for
// that generation instead of repeating it. If generation panics, the entry
// leaves the cache before the panic propagates, so a later request
// regenerates the trace from scratch.
//
// A request over the cache's record budget is not cached: Records counts
// the miss and returns nil records and a nil release, and the caller
// generates the trace itself. It panics on unknown benchmarks, mirroring
// the generator path.
func (c *Cache) Records(benchmark string, seed uint64, n int) (recs []Record, release func()) {
	prof, ok := Profiles[benchmark]
	if !ok {
		panic(fmt.Sprintf("trace: unknown benchmark %q", benchmark))
	}
	if n <= 0 {
		return nil, nil
	}
	if n > c.maxRecords {
		// An arena that could never fit would evict the whole cache for
		// nothing.
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, nil
	}
	key := traceKey{benchmark: benchmark, seed: seed}
	for {
		// The reader count is taken with the lookup, under the cache lock,
		// so a Drop that lands before serve returns cannot recycle the
		// arena serve is about to hand out. A generation panic leaves the
		// count taken; the entry is dropped then and its arena left to the
		// garbage collector.
		c.mu.Lock()
		e := c.entries[key]
		if e == nil {
			e = &traceEntry{key: key, gen: NewGenerator(prof, seed)}
			e.release = func() { c.release(e) }
			e.elem = c.lru.PushFront(e)
			c.entries[key] = e
		} else {
			c.lru.MoveToFront(e.elem)
		}
		e.readers++
		c.mu.Unlock()
		if recs := c.serve(e, n); recs != nil {
			return recs, e.release
		}
		c.release(e)
	}
}

// Drop removes the workload's arena from the cache. Requests already
// served keep reading it; its storage becomes the spare once the last of
// them is released, and a later request regenerates the trace. Dropping an
// uncached workload does nothing.
func (c *Cache) Drop(benchmark string, seed uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[traceKey{benchmark: benchmark, seed: seed}]; e != nil {
		c.drop(e)
		e.dropped = true
		c.recycle(e)
	}
}

// release ends one reader's hold on e, recycling the arena if e has left
// the cache and this was its last reader.
func (c *Cache) release(e *traceEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.readers--
	c.recycle(e)
}

// serve returns the first n records of e's arena, generating the missing
// ones first. It returns nil when e was dropped by a failed generation
// while the caller waited for it.
func (c *Cache) serve(e *traceEntry, n int) []Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gen == nil {
		return nil
	}
	grew := n - len(e.recs)
	var spare []Record
	c.mu.Lock()
	if grew > 0 {
		c.misses++
		c.generated += uint64(grew)
		// Only an exact fit: the budget counts an arena by its length, so
		// a longer backing array would hold memory the budget never sees.
		if cap(c.spare) == n {
			spare, c.spare = c.spare[:n], nil
		}
		if !e.evicted {
			e.size += grew
			c.total += grew
			c.evict(e)
		}
	} else {
		c.hits++
	}
	c.mu.Unlock()
	if grew > 0 {
		c.extend(e, n, spare)
	}
	return e.recs[:n:n]
}

// extend replaces e's arena with an n-record one: a copy of the current
// prefix followed by records from the same generator, written into recs
// (the n-record spare) if it is not nil. A panic drops the entry before it
// propagates, since its generator is left in an unknown state. Caller
// holds e.mu.
func (c *Cache) extend(e *traceEntry, n int, recs []Record) {
	done := false
	defer func() {
		if !done {
			e.gen = nil
			c.mu.Lock()
			if !e.evicted {
				c.drop(e)
			}
			c.mu.Unlock()
		}
	}()
	if hook := genHook.Load(); hook != nil {
		(*hook)()
	}
	if recs == nil {
		recs = make([]Record, n)
	}
	// Fill overwrites every record past the copied prefix, so a recycled
	// arena's stale contents never leak.
	for i := copy(recs, e.recs); i < n; i++ {
		e.gen.Fill(&recs[i])
	}
	e.recs = recs
	done = true
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:          len(c.entries),
		Records:          c.total,
		Hits:             c.hits,
		Misses:           c.misses,
		GeneratedRecords: c.generated,
		EvictedRecords:   c.evictedRec,
	}
}

// evict discards the spare, then drops least-recently-used entries, until
// the cached arenas and the spare fit the record budget, never evicting
// keep (the entry just served, which is also the MRU, so the list is never
// empty here). Caller holds c.mu.
func (c *Cache) evict(keep *traceEntry) {
	for c.total+cap(c.spare) > c.maxRecords {
		if c.spare != nil {
			c.spare = nil
			continue
		}
		e := c.lru.Back().Value.(*traceEntry)
		if e == keep {
			return
		}
		c.evictedRec += uint64(e.size)
		c.drop(e)
	}
}

// drop removes an entry from the index and the LRU list, releasing its
// share of the record budget. Caller holds c.mu.
func (c *Cache) drop(e *traceEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	e.evicted = true
	c.total -= e.size
}

// recycle makes a dropped, unread entry's arena the spare in place of any
// older one, if the cached arenas leave it room in the record budget. No
// request can reach the entry any more, so nothing else touches e.recs.
// Caller holds c.mu.
func (c *Cache) recycle(e *traceEntry) {
	if !e.dropped || e.readers > 0 || e.recs == nil {
		return
	}
	if c.total+cap(e.recs) <= c.maxRecords {
		c.spare = e.recs[:0]
	}
	e.recs = nil
}
