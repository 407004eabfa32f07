package tlb

import "malec/internal/mem"

// PageTable maps virtual pages to physical pages. Physical frames are
// assigned on first touch in a deterministic scrambled order, modelling an
// OS allocator without preserving virtual contiguity (which matters for the
// PIPT cache's set-index bit above the page offset).
//
// Storage is a pair of open-addressed flat tables (v->p mapping and
// used-frame set) instead of Go maps: translations are on the simulation
// hot path of every TLB walk, and large-footprint workloads (tlbthrash,
// ptrchase) used to pay hundreds of map-growth allocations per run. The
// assignment function itself is unchanged — only where it is stored.
type PageTable struct {
	fwd  ptMap
	used mem.PageSet
	next uint32
	// spare holds the storage a restore last replaced; the next restore
	// rebuilds into it, so restores stop allocating once both tables
	// have grown to the snapshots' size.
	spare *PageTable
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	pt := new(PageTable)
	pt.reset(0)
	return pt
}

// reset empties the table and sizes it to map the given number of pages
// without growing, keeping its storage where that is large enough.
func (pt *PageTable) reset(pages int) {
	slots := ptInitialSlots
	for 2*pages > slots {
		slots *= 4
	}
	pt.fwd.reset(slots)
	pt.used.Reset(slots)
	pt.next = 0
}

// Translate returns the physical page for v, allocating one on first use.
//
// Frames are handed out with page colouring on the bit that reaches the
// PIPT L1's set index (PA bit 12, i.e. frame bit 0): consecutive
// allocations alternate colours, spreading pages evenly over the cache
// halves the way colouring-aware OS allocators do. The remaining frame bits
// are scrambled so physically-indexed structures see no artificial
// contiguity.
func (pt *PageTable) Translate(v mem.PageID) mem.PageID {
	if p, ok := pt.fwd.get(v); ok {
		return p
	}
	frame := pt.next
	pt.next++
	// Cache colouring: preserve the virtual page's colour bit (the one
	// that reaches the L1 set index) so virtually-contiguous data stays
	// spread across cache halves, as colouring-aware OS allocators do.
	color := uint32(v) & 1
	upper := frame * 2654435761
	p := mem.PageID((upper<<1 | color) & (1<<mem.PageBits - 1))
	// Linear-probe in colour-preserving steps to keep the map injective.
	for pt.used.Has(p) {
		p = (p + 2) & (1<<mem.PageBits - 1)
	}
	pt.fwd.put(v, p, pt.next)
	pt.used.Add(p)
	return p
}

// Pages returns the number of mapped pages.
func (pt *PageTable) Pages() int { return pt.fwd.n }

// TranslateAddr translates a full virtual address.
func (pt *PageTable) TranslateAddr(va mem.Addr) mem.Addr {
	return mem.MakeAddr(pt.Translate(va.Page()), va.PageOffset())
}

// ptInitialSlots is the initial open-addressed table size. Tables grow
// 4x at half occupancy: large-footprint workloads (tlbthrash, ptrchase)
// map tens of thousands of pages per run, and fewer growth steps mean
// fewer full rehashes on the walk path.
const ptInitialSlots = 4096

// ptHash spreads page IDs over a power-of-two table.
func ptHash(k mem.PageID, mask uint32) uint32 {
	return (uint32(k) * 2654435761) & mask
}

// ptEntry is one fused map slot: key, value and presence share a cache
// line, so a probe costs one memory access instead of three. seq is the
// mapping's first-touch position plus one (its frame number plus one), 0
// for an empty slot: the order a snapshot records (see PageTableState).
type ptEntry struct {
	key mem.PageID
	val mem.PageID
	seq uint32
}

// ptMap is a growable open-addressed PageID -> PageID map. The zero page
// is a valid key and value; presence is a non-zero seq.
type ptMap struct {
	slots []ptEntry
	n     int
}

func (m *ptMap) init(slots int) {
	m.slots = make([]ptEntry, slots)
	m.n = 0
}

// reset empties the map like init, keeping its storage when that already
// has at least slots slots.
func (m *ptMap) reset(slots int) {
	if len(m.slots) < slots {
		m.init(slots)
		return
	}
	clear(m.slots)
	m.n = 0
}

func (m *ptMap) get(k mem.PageID) (mem.PageID, bool) {
	mask := uint32(len(m.slots) - 1)
	for i := ptHash(k, mask); ; i = (i + 1) & mask {
		e := &m.slots[i]
		if e.seq == 0 {
			return 0, false
		}
		if e.key == k {
			return e.val, true
		}
	}
}

// put maps k, which must be absent, to v as the seq-th first touch.
func (m *ptMap) put(k, v mem.PageID, seq uint32) {
	if 2*(m.n+1) > len(m.slots) {
		old := m.slots
		m.init(4 * len(old))
		for i := range old {
			if old[i].seq != 0 {
				m.put(old[i].key, old[i].val, old[i].seq)
			}
		}
	}
	mask := uint32(len(m.slots) - 1)
	i := ptHash(k, mask)
	for m.slots[i].seq != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = ptEntry{key: k, val: v, seq: seq}
	m.n++
}
