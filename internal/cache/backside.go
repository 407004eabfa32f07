package cache

import (
	"fmt"

	"malec/internal/mem"
)

// L2 is a set-associative latency/hit model of the unified L2 cache. The
// paper keeps L2 and below out of the energy accounting ("MALEC alters the
// timing of L2 accesses, but does not significantly impact their number or
// miss rate"), so the L2 tracks residency and counts only.
//
// Residency checks scan a compact tag array: one uint32 per way holding
// the line ID (physical address >> LineShift) plus one, 0 for an invalid
// way. The tag array is the only residency record: the L2 holds no line
// data and never marks a line dirty, so a tag says everything a line
// would. A set's 16 tags fill one 64-byte host cache line, so a lookup
// touches one line instead of chasing a hash chain. Victim selection on a
// miss is an LRU sweep of the set's stamps; the package tests check both
// against a reference model that keeps each set as an LRU list.
type L2 struct {
	ways    int
	sets    int
	setMask uint64 // sets-1: sets is a power of two
	// tags and lru are flat set-major arrays (set s, way w at s*ways+w):
	// two allocations per L2 instead of two per set, which matters when
	// the engine spins up thousands of short simulations. An invalid way
	// has tag 0 and stamp 0.
	tags  []uint32
	lru   []uint64
	clock uint64

	Latency     int // cycles added on an L1 miss that hits L2
	accesses    uint64
	hits        uint64
	misses      uint64
	writebacks  uint64
	fillsFromLo uint64
}

// L2Stats summarizes L2 activity.
type L2Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// NewL2 returns the paper's 1 MByte 16-way, 12-cycle L2.
func NewL2() *L2 { return NewL2Custom(1<<20, 16, 12) }

// NewL2Custom returns an L2 with explicit capacity/associativity/latency.
// The set count, capacity/(line size*ways), must be a power of two, so a
// set index is a mask, not a division.
func NewL2Custom(capacity, ways, latency int) *L2 {
	sets := capacity / (mem.LineSize * ways)
	if sets <= 0 {
		panic("cache: L2 too small")
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d L2 sets is not a power of two", sets))
	}
	l := &L2{ways: ways, sets: sets, setMask: uint64(sets - 1), Latency: latency}
	l.tags = make([]uint32, sets*ways)
	l.lru = make([]uint64, sets*ways)
	return l
}

// lineTag is the tag-array entry of a resident line: its line ID plus one,
// so that 0 marks an invalid way. Line IDs of 32-bit addresses fit in 26
// bits.
func lineTag(target mem.Addr) uint32 {
	return uint32(uint64(target)>>mem.LineShift) + 1
}

// Stats returns the L2 activity counters.
func (l *L2) Stats() L2Stats {
	return L2Stats{Accesses: l.accesses, Hits: l.hits, Misses: l.misses,
		Writebacks: l.writebacks}
}

func (l *L2) set(pa mem.Addr) int {
	return int((uint64(pa.Canon()) >> mem.LineShift) & l.setMask)
}

// Access looks up pa, filling on miss, and reports whether it hit.
func (l *L2) Access(pa mem.Addr) (hit bool) {
	l.accesses++
	base := l.set(pa) * l.ways
	tag := lineTag(pa.LineAddr())
	tags := l.tags[base : base+l.ways]
	for w, t := range tags {
		if t == tag {
			l.hits++
			l.clock++
			l.lru[base+w] = l.clock
			return true
		}
	}
	l.misses++
	// Fill (LRU victim).
	lru := l.lru[base : base+l.ways]
	way := 0
	for w := 1; w < l.ways; w++ {
		if lru[w] < lru[way] {
			way = w
		}
	}
	tags[way] = tag
	l.clock++
	lru[way] = l.clock
	return false
}

// Writeback absorbs a dirty L1 line (allocate on write).
func (l *L2) Writeback(pa mem.Addr) {
	l.writebacks++
	l.Access(pa) // ensure residency; counts as an access
}

// DRAM models main memory as a fixed additional latency.
type DRAM struct {
	Latency  int
	accesses uint64
}

// NewDRAM returns the paper's 54-cycle DRAM model.
func NewDRAM() *DRAM { return &DRAM{Latency: 54} }

// Access counts one DRAM access and returns its latency.
func (d *DRAM) Access() int {
	d.accesses++
	return d.Latency
}

// Accesses returns the access count.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// Backside bundles everything behind the L1: it converts an L1 miss into an
// additional latency and keeps residency of lower levels coherent.
type Backside struct {
	L2   *L2
	DRAM *DRAM
}

// NewBackside returns a Backside with the paper's L2 and DRAM parameters.
func NewBackside() *Backside { return &Backside{L2: NewL2(), DRAM: NewDRAM()} }

// Miss services an L1 miss for pa and returns the extra cycles beyond the
// L1 access itself.
func (b *Backside) Miss(pa mem.Addr) int {
	lat := b.L2.Latency
	if !b.L2.Access(pa) {
		lat += b.DRAM.Access()
	}
	return lat
}

// Writeback forwards a dirty L1 victim to the L2.
func (b *Backside) Writeback(pa mem.Addr) { b.L2.Writeback(pa) }

// HasDeferredWork reports whether the backside holds work that completes in
// a later cycle on its own. The L2 and DRAM models are synchronous — Miss
// returns its full latency immediately and schedules nothing, with
// MSHR-induced waits folded into the requesting load's completion time —
// so there is never deferred work here. The predicate is part of the
// cycle-skipping contract (core.System nextWork) and keeps that logic
// correct if a future change makes the backside event-driven.
func (b *Backside) HasDeferredWork() bool { return false }
