package waytable

import "malec/internal/mem"

// WDUStats counts WDU activity for the energy model. Unlike the lookup-free
// WT (indexed by the TLB hit), each WDU port performs a fully-associative
// tag-sized search.
type WDUStats struct {
	PortLookups uint64 // associative lookups across all ports
	Hits        uint64
	Updates     uint64
	Evictions   uint64
}

// WDU adapts Nicolaescu et al.'s Way Determination Unit for the comparison
// of Sec. VI-C: a small fully-associative buffer mapping recently accessed
// line addresses to their way, extended with validity bits so hits may use
// reduced (tag-bypassing) cache accesses like the WT scheme. Supporting the
// four-parallel-load MALEC configuration requires Ports associative lookup
// ports, which is what makes it energy-hungrier than the WT despite its
// small size.
type WDU struct {
	// Ports is the number of lookup ports (4 for the MALEC config).
	Ports int

	entries []wduEntry
	clock   uint64
	stats   WDUStats

	known uint64
	total uint64
}

type wduEntry struct {
	line  mem.Addr
	way   int8
	valid bool
	stamp uint64
}

// NewWDU returns a WDU with size entries (8, 16 or 32 in the paper) and
// ports lookup ports.
func NewWDU(size, ports int) *WDU {
	w := new(WDU)
	w.Init(size, ports)
	return w
}

// Init readies w as NewWDU(size, ports) builds it, keeping its entries
// when they have that size.
func (w *WDU) Init(size, ports int) {
	*w = WDU{Ports: ports, entries: mem.Resize(w.entries, size)}
}

// Size returns the number of entries.
func (w *WDU) Size() int { return len(w.entries) }

// Stats returns a copy of the activity counters.
func (w *WDU) Stats() WDUStats { return w.stats }

// Lookup implements Determiner. Each lookup consumes one associative port
// search.
func (w *WDU) Lookup(pline mem.Addr, _ int) (way int, known bool) {
	w.total++
	w.stats.PortLookups++
	target := pline.LineAddr()
	for i := range w.entries {
		if w.entries[i].valid && w.entries[i].line == target {
			w.clock++
			w.entries[i].stamp = w.clock
			w.stats.Hits++
			w.known++
			return int(w.entries[i].way), true
		}
	}
	return -1, false
}

// Feedback implements Determiner: observed ways of conventional hits are
// inserted (the WDU's learning path).
func (w *WDU) Feedback(pline mem.Addr, _ int, way int) {
	w.insert(pline.LineAddr(), way)
}

// OnFill mirrors the L1 fill hook so freshly filled lines are known.
func (w *WDU) OnFill(pline mem.Addr, _, way int) { w.insert(pline.LineAddr(), way) }

// OnEvict invalidates the entry for an evicted line (validity-bit
// extension enabling reduced accesses).
func (w *WDU) OnEvict(pline mem.Addr, _, _ int) {
	target := pline.LineAddr()
	for i := range w.entries {
		if w.entries[i].valid && w.entries[i].line == target {
			w.entries[i].valid = false
			return
		}
	}
}

// insert places or refreshes a line->way mapping, evicting LRU.
func (w *WDU) insert(line mem.Addr, way int) {
	w.stats.Updates++
	w.clock++
	victim := 0
	for i := range w.entries {
		if w.entries[i].valid && w.entries[i].line == line {
			w.entries[i].way = int8(way)
			w.entries[i].stamp = w.clock
			return
		}
		if !w.entries[i].valid {
			victim = i
		} else if w.entries[victim].valid && w.entries[i].stamp < w.entries[victim].stamp {
			victim = i
		}
	}
	if w.entries[victim].valid {
		w.stats.Evictions++
	}
	w.entries[victim] = wduEntry{line: line, way: int8(way), valid: true, stamp: w.clock}
}

// Coverage implements Determiner.
func (w *WDU) Coverage() (known, total uint64) { return w.known, w.total }
