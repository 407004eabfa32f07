// Package cache implements the memory-side substrate: the banked,
// physically indexed/physically tagged (PIPT) L1 data cache with
// conventional and reduced (way-determined) access modes, and the L2/DRAM
// latency models behind it (paper Tab. II: 32 KByte 4-way L1 with four
// independent single-ported banks and 64 byte lines; 1 MByte 16-way L2 at
// 12 cycles; DRAM at 54 cycles).
package cache

import (
	"fmt"

	"malec/internal/mem"
)

// Line is one L1 cache line's state. Data values are not simulated — only
// placement, so tags suffice.
type Line struct {
	Valid bool
	Dirty bool
	// PLine is the physical line-aligned address held by this way.
	PLine mem.Addr
}

// Stats counts L1 activity, split by array so the energy model can price
// tag and data accesses separately, and by access mode (Sec. V):
//
//   - conventional access: all tag arrays + all data arrays read in
//     parallel, the matching way's data selected;
//   - reduced access: tag arrays bypassed, exactly one data array read.
type Stats struct {
	Loads  uint64
	Stores uint64
	Hits   uint64
	Misses uint64

	ConventionalReads uint64 // loads performed in conventional mode
	ReducedReads      uint64 // loads performed in reduced mode

	TagWayReads   uint64 // individual tag-array reads
	DataWayReads  uint64 // individual data-array reads
	DataWayWrites uint64 // individual data-array writes
	TagWayWrites  uint64 // tag writes (fills)

	Fills      uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses / (hits+misses).
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// L1 is the banked PIPT L1 data cache. The cache itself is unmodified
// relative to a conventional design ("to allow the re-use of existing,
// highly optimized designs"); MALEC-specific behaviour lives in the access
// mode chosen by the caller.
type L1 struct {
	ways    int
	sets    int
	setMask uint64 // sets-1: sets is a power of two

	lines []Line   // flattened [set][way]: index set*ways+way
	lru   []uint64 // LRU stamps, same layout
	clock uint64

	// ConstrainWays enforces the way-table encodability constraint
	// (Sec. V): a line whose in-page index is l is never allocated into
	// way (l/4) mod ways, so 2 bits suffice for validity+way. Working
	// sets may still use all ways (the excluded way differs per line).
	ConstrainWays bool

	// OnFill is invoked after a line fill with the physical line address
	// and placement (way-table validity maintenance).
	OnFill func(pline mem.Addr, set, way int)
	// OnEvict is invoked when a valid line is displaced or invalidated.
	OnEvict func(pline mem.Addr, set, way int)

	stats Stats
}

// NewL1 returns an L1 with the paper's geometry (mem.L1Sets x mem.L1Ways).
func NewL1() *L1 { return NewL1Custom(mem.L1Sets, mem.L1Ways) }

// NewL1Custom returns an L1 with explicit geometry (sets must be a power
// of two divisible by mem.NumBanks, so a set index is a mask, not a
// division).
func NewL1Custom(sets, ways int) *L1 {
	if sets <= 0 || ways <= 0 {
		panic("cache: non-positive L1 geometry")
	}
	if sets%mem.NumBanks != 0 {
		panic(fmt.Sprintf("cache: %d sets not divisible by %d banks", sets, mem.NumBanks))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d L1 sets is not a power of two", sets))
	}
	// Flat slabs (two allocations total, not two per set): construction
	// cost matters because every simulation run builds a fresh L1.
	c := &L1{ways: ways, sets: sets, setMask: uint64(sets - 1)}
	c.lines = make([]Line, sets*ways)
	c.lru = make([]uint64, sets*ways)
	return c
}

// Ways returns the associativity.
func (c *L1) Ways() int { return c.ways }

// Sets returns the total number of sets.
func (c *L1) Sets() int { return c.sets }

// Stats returns a copy of the activity counters.
func (c *L1) Stats() Stats { return c.stats }

// set returns the set index of a physical address.
func (c *L1) set(pa mem.Addr) int {
	return int((uint64(pa.Canon()) >> mem.LineShift) & c.setMask)
}

// Bank returns the bank servicing physical address pa.
func (c *L1) Bank(pa mem.Addr) int { return c.set(pa) % mem.NumBanks }

// line returns the Line at (set, way) in the flat slab.
func (c *L1) line(s, w int) *Line { return &c.lines[s*c.ways+w] }

// Probe reports whether pa is resident and in which way, without touching
// statistics or LRU state.
func (c *L1) Probe(pa mem.Addr) (way int, hit bool) {
	base := c.set(pa) * c.ways
	target := pa.LineAddr()
	for w := 0; w < c.ways; w++ {
		if ln := &c.lines[base+w]; ln.Valid && ln.PLine == target {
			return w, true
		}
	}
	return -1, false
}

// touch updates LRU state for (set, way).
func (c *L1) touch(s, w int) {
	c.clock++
	c.lru[s*c.ways+w] = c.clock
}

// ReadConventional performs a conventional-mode load lookup: all tag arrays
// and all data arrays are accessed in parallel (the high-performance access
// of Sec. V). It returns the hit way, or -1 on miss.
func (c *L1) ReadConventional(pa mem.Addr) (way int, hit bool) {
	c.stats.Loads++
	c.stats.ConventionalReads++
	c.stats.TagWayReads += uint64(c.ways)
	c.stats.DataWayReads += uint64(c.ways)
	way, hit = c.Probe(pa)
	if hit {
		c.stats.Hits++
		c.touch(c.set(pa), way)
		return way, true
	}
	c.stats.Misses++
	return -1, false
}

// ReadReduced performs a reduced-mode load: the tag arrays are bypassed and
// only the predicted data array is read. The way-table guarantees validity,
// so a reduced read always hits; ReadReduced panics if the guarantee is
// violated (that would be a way-table coherence bug).
func (c *L1) ReadReduced(pa mem.Addr, way int) {
	c.stats.Loads++
	c.stats.ReducedReads++
	c.stats.DataWayReads++
	s := c.set(pa)
	if way < 0 || way >= c.ways || !c.line(s, way).Valid ||
		c.line(s, way).PLine != pa.LineAddr() {
		panic(fmt.Sprintf("cache: reduced access to %v way %d violated way-table guarantee", pa, way))
	}
	c.stats.Hits++
	c.touch(s, way)
}

// Write performs a store access: one tag lookup across ways plus a single
// data-array write on a hit. It returns the hit way, or -1 on miss (the
// caller then fills with write-allocate and retries).
func (c *L1) Write(pa mem.Addr) (way int, hit bool) {
	c.stats.Stores++
	c.stats.TagWayReads += uint64(c.ways)
	way, hit = c.Probe(pa)
	if !hit {
		c.stats.Misses++
		return -1, false
	}
	c.stats.Hits++
	c.stats.DataWayWrites++
	s := c.set(pa)
	c.line(s, way).Dirty = true
	c.touch(s, way)
	return way, true
}

// WriteReduced performs a store with a known, valid way: tag arrays are
// bypassed entirely.
func (c *L1) WriteReduced(pa mem.Addr, way int) {
	c.stats.Stores++
	c.stats.DataWayWrites++
	s := c.set(pa)
	if way < 0 || way >= c.ways || !c.line(s, way).Valid ||
		c.line(s, way).PLine != pa.LineAddr() {
		panic(fmt.Sprintf("cache: reduced store to %v way %d violated way-table guarantee", pa, way))
	}
	c.stats.Hits++
	c.line(s, way).Dirty = true
	c.touch(s, way)
}

// Fill allocates a line for pa, selecting an LRU victim among the allowed
// ways, and returns the placement plus any displaced dirty line (for
// writeback). OnEvict/OnFill hooks fire for way-table maintenance.
func (c *L1) Fill(pa mem.Addr) (way int, victim mem.Addr, writeback bool) {
	s := c.set(pa)
	excluded := -1
	if c.ConstrainWays {
		excluded = pa.ExcludedWay() % c.ways
	}
	// Prefer an invalid allowed way.
	way = -1
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		if w == excluded {
			continue
		}
		if !c.lines[base+w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		// LRU among allowed ways.
		var bestStamp uint64
		for w := 0; w < c.ways; w++ {
			if w == excluded {
				continue
			}
			if way < 0 || c.lru[base+w] < bestStamp {
				way, bestStamp = w, c.lru[base+w]
			}
		}
	}
	old := c.lines[base+way]
	if old.Valid {
		c.stats.Evictions++
		if old.Dirty {
			c.stats.Writebacks++
			victim, writeback = old.PLine, true
		} else {
			victim = old.PLine
		}
		if c.OnEvict != nil {
			c.OnEvict(old.PLine, s, way)
		}
	}
	c.lines[base+way] = Line{Valid: true, PLine: pa.LineAddr()}
	c.stats.Fills++
	c.stats.TagWayWrites++
	c.stats.DataWayWrites++
	c.touch(s, way)
	if c.OnFill != nil {
		c.OnFill(pa.LineAddr(), s, way)
	}
	return way, victim, writeback
}

// MarkDirty marks the line holding pa dirty (used when a fill is directly
// followed by the store that caused it).
func (c *L1) MarkDirty(pa mem.Addr) {
	if w, hit := c.Probe(pa); hit {
		c.line(c.set(pa), w).Dirty = true
	}
}

// InvalidateAll clears the cache, firing OnEvict for each valid line.
func (c *L1) InvalidateAll() {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			if ln := c.line(s, w); ln.Valid {
				if c.OnEvict != nil {
					c.OnEvict(ln.PLine, s, w)
				}
				*ln = Line{}
			}
		}
	}
}
