package trace

import (
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

// chunkRecords is how many records the producer generates between two
// watermark publications: large enough that publishing (a lock and a
// broadcast) is noise next to generation, small enough that a reader
// waiting at the watermark resumes within a fraction of a millisecond.
const chunkRecords = 8192

// arena is one flat record array of fixed length, filled front to back by
// a single producer goroutine while readers consume the written prefix.
// recs[:filled] are final and never written again.
type arena struct {
	recs   []Record
	filled atomic.Int64
	// waitFn is wait as a func value, made once so that a request for an
	// existing arena allocates nothing.
	waitFn func(i int) int

	mu   sync.Mutex
	cond sync.Cond // signalled on every publication and on failure
	// failure holds the producer's panic value once it died (never nil:
	// recover turns panic(nil) into a *runtime.PanicNilError); readers
	// waiting past the watermark re-panic with it.
	failure any
}

func newArena(n int) *arena {
	a := &arena{recs: make([]Record, n)}
	a.cond.L = &a.mu
	a.waitFn = a.wait
	return a
}

// publish advances the watermark to w and wakes waiting readers.
func (a *arena) publish(w int) {
	a.mu.Lock()
	a.filled.Store(int64(w))
	a.mu.Unlock()
	a.cond.Broadcast()
}

// fail records the producer's panic value and wakes waiting readers.
func (a *arena) fail(v any) {
	a.mu.Lock()
	a.failure = v
	a.mu.Unlock()
	a.cond.Broadcast()
}

// wait blocks until record i is written and returns the watermark (> i).
// If the producer panicked before writing record i, wait re-panics with
// its value on the caller's goroutine.
func (a *arena) wait(i int) int {
	if w := int(a.filled.Load()); w > i {
		return w
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if w := int(a.filled.Load()); w > i {
			return w
		}
		if a.failure != nil {
			panic(a.failure)
		}
		a.cond.Wait()
	}
}

// chunkHook, when set, runs in the producer before each chunk with the
// chunk's first record index. It is a test seam (a hook that panics or
// blocks exercises producer failure and mid-generation joins); production
// code never sets it.
var chunkHook atomic.Pointer[func(start int)]

// traceEntry is one materialized trace: its newest (longest) arena plus
// the generator that fills it, so a longer request extends the trace from
// the existing prefix instead of regenerating from scratch.
type traceEntry struct {
	key traceKey

	// mu serializes arena replacement for this entry (singleflight:
	// concurrent requests for one workload share one arena and one
	// producer while other workloads proceed in parallel). Arenas handed
	// out remain valid after later extensions or eviction.
	mu    sync.Mutex
	arena *arena
	// gen is advanced by one producer at a time: an extension's producer
	// waits for the previous producer to finish before touching it.
	gen *Generator

	// size mirrors len(arena.recs) under the cache lock, for the record
	// budget; evicted marks entries already dropped from the index so a
	// concurrent extension does not re-account them.
	size    int
	evicted bool

	prev, next *traceEntry // LRU list, most recent first
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
	// cached arenas and the records dropped by the LRU bound over the
	// cache's lifetime.
	GeneratedRecords uint64 `json:"generatedRecords"`
	EvictedRecords   uint64 `json:"evictedRecords"`
}

// Cache is a bounded, content-addressed store of materialized benchmark
// traces, keyed by (benchmark, seed) and served as flat []Record prefixes.
// It exists so that a sweep running one workload across many machine
// configurations generates the workload's trace once and shares the same
// backing array between all simulations (the returned slices are read-only
// by convention and safe for concurrent readers). A missed trace is
// generated by one producer goroutine into an arena allocated at its full
// length, and readers stream the written prefix while the rest is still
// being generated; the producer exits once the arena is full, so its work
// is bounded by the cache's record budget. Memory is bounded by a total
// record budget with least-recently-used eviction. Safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxRecords int
	total      int
	entries    map[traceKey]*traceEntry
	head, tail *traceEntry
	hits       uint64
	misses     uint64
	generated  uint64
	evictedRec uint64
}

// NewCache returns a trace cache bounded to maxRecords total records
// across all entries. It panics on a non-positive bound (callers disable
// trace caching by not constructing one).
func NewCache(maxRecords int) *Cache {
	if maxRecords <= 0 {
		panic("trace: cache record bound must be positive")
	}
	return &Cache{maxRecords: maxRecords, entries: make(map[traceKey]*traceEntry)}
}

// Records returns the first n records of the named benchmark's trace for
// seed, waiting until all n are written. It is Stream for callers that
// want a complete prefix: the returned slice aliases the shared arena
// (read-only by convention), and a request over the cache's record budget
// returns nil. It panics on unknown benchmarks, mirroring the generator
// path.
func (c *Cache) Records(benchmark string, seed uint64, n int) []Record {
	recs, wait := c.Stream(benchmark, seed, n)
	if wait != nil {
		wait(n - 1)
	}
	return recs
}

// Stream returns the first n records of the named benchmark's trace for
// seed as a slice of the shared arena that may still be filling, and the
// arena's wait function: wait(i) blocks until record i is written and
// returns the arena's watermark, the count of leading records written
// (more than i, and possibly more than n when the arena is longer).
// Records at or past the watermark must not be read yet. A missed or
// too-short trace starts a producer that fills a new arena, extending
// from the existing prefix; a request for a trace already being filled
// streams from the same arena and never generates a second time. If the
// producer panics, wait re-panics with its value on the reader's
// goroutine.
//
// A request over the cache's record budget is not cached: Stream counts
// the miss and returns nil, and the caller generates the trace itself. It
// panics on unknown benchmarks, mirroring the generator path.
func (c *Cache) Stream(benchmark string, seed uint64, n int) (recs []Record, wait func(i int) int) {
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
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &traceEntry{key: key, gen: NewGenerator(prof, seed)}
		c.entries[key] = e
		c.pushFront(e)
	} else {
		c.moveToFront(e)
	}
	c.mu.Unlock()

	e.mu.Lock()
	a := e.arena
	grew := 0
	if a == nil || len(a.recs) < n {
		prev := a
		a = newArena(n)
		grew = n
		if prev != nil {
			grew -= len(prev.recs)
		}
		e.arena = a
		go c.produce(e, prev, a, chunkHook.Load())
	}
	e.mu.Unlock()

	c.mu.Lock()
	if grew > 0 {
		c.misses++
		c.generated += uint64(grew)
		if !e.evicted {
			e.size += grew
			c.total += grew
			c.evict(e)
		}
	} else {
		c.hits++
	}
	c.mu.Unlock()
	return a.recs[:n:n], a.waitFn
}

// produce fills a: it copies the previous arena's records once their own
// producer has finished with the generator, then generates the rest chunk
// by chunk, publishing the watermark after each. A panic is handed to a's
// readers and the entry is dropped, so a later request starts afresh.
func (c *Cache) produce(e *traceEntry, prev, a *arena, hook *func(start int)) {
	defer func() {
		if r := recover(); r != nil {
			a.fail(r)
			c.mu.Lock()
			if !e.evicted {
				c.remove(e)
				delete(c.entries, e.key)
				e.evicted = true
				c.total -= e.size
			}
			c.mu.Unlock()
		}
	}()
	i := 0
	if prev != nil {
		i = len(prev.recs)
		prev.wait(i - 1)
		copy(a.recs, prev.recs)
		a.publish(i)
	}
	for i < len(a.recs) {
		if hook != nil {
			(*hook)(i)
		}
		end := min(i+chunkRecords, len(a.recs))
		for ; i < end; i++ {
			a.recs[i] = e.gen.Next()
		}
		a.publish(end)
	}
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

// evict drops least-recently-used entries until the record budget holds,
// never evicting keep (the entry just served, which is also the MRU).
// Caller holds c.mu.
func (c *Cache) evict(keep *traceEntry) {
	for c.total > c.maxRecords && c.tail != nil && c.tail != keep {
		e := c.tail
		c.remove(e)
		delete(c.entries, e.key)
		e.evicted = true
		c.total -= e.size
		c.evictedRec += uint64(e.size)
	}
}

// pushFront inserts a new entry at the MRU end. Caller holds c.mu.
func (c *Cache) pushFront(e *traceEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// remove unlinks an entry from the LRU list. Caller holds c.mu.
func (c *Cache) remove(e *traceEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks an entry most recently used. Caller holds c.mu.
func (c *Cache) moveToFront(e *traceEntry) {
	if c.head == e {
		return
	}
	c.remove(e)
	c.pushFront(e)
}
