package buffers

import "malec/internal/mem"

// MBE is an evicted merge-buffer entry on its way to the L1: a line-aligned
// virtual address plus the byte mask to be written.
type MBE struct {
	LineVA mem.Addr
	Mask   uint64 // one bit per byte of the 64 byte line
}

// MBStats counts merge-buffer activity.
type MBStats struct {
	Inserts   uint64 // stores entering the MB
	Merges    uint64 // stores coalesced into an existing entry
	Evictions uint64 // MBEs produced (eventual L1 writes)
	Lookups   uint64 // load forwarding searches
	Forwards  uint64
}

// MergeBuffer coalesces committed stores per cache line. When a store to a
// new line arrives while the buffer is full, the oldest entry is evicted as
// an MBE (FIFO), which the L1 interface writes back when it wins access.
//
// Both the live entries and the pending-MBE backlog are fixed rings: the
// backlog is bounded by CanAccept at 2x capacity during simulation, plus up
// to capacity more from the end-of-run Drain, so neither ever allocates
// after construction.
type MergeBuffer struct {
	cap     int
	entries []mbEntry // ring of live entries; eHead is the oldest
	eHead   int
	eN      int
	pending []MBE // ring of evicted entries awaiting L1 write
	pHead   int
	pN      int
	stats   MBStats
}

type mbEntry struct {
	lineVA mem.Addr
	mask   uint64
}

// NewMergeBuffer returns a merge buffer with the given capacity (4 in the
// paper).
func NewMergeBuffer(capacity int) *MergeBuffer {
	return &MergeBuffer{
		cap:     capacity,
		entries: make([]mbEntry, capacity),
		pending: make([]MBE, 3*capacity),
	}
}

// Reset empties the buffer and its backlog and clears its statistics, as
// on a new buffer.
func (b *MergeBuffer) Reset() {
	clear(b.entries)
	clear(b.pending)
	*b = MergeBuffer{cap: b.cap, entries: b.entries, pending: b.pending}
}

// entryAt returns the i-th live entry, oldest first.
func (b *MergeBuffer) entryAt(i int) *mbEntry {
	i += b.eHead
	if i >= len(b.entries) {
		i -= len(b.entries)
	}
	return &b.entries[i]
}

// Len returns the number of live entries.
func (b *MergeBuffer) Len() int { return b.eN }

// PendingMBEs returns the number of evicted entries awaiting L1 writes.
func (b *MergeBuffer) PendingMBEs() int { return b.pN }

// HasDeferredWork reports whether evicted MBEs are awaiting their L1
// writes. Live (still mergeable) entries are not deferred work: they leave
// the buffer only in response to new stores or an explicit Drain, never by
// the passage of cycles.
func (b *MergeBuffer) HasDeferredWork() bool { return b.pN > 0 }

// Stats returns a copy of the activity counters.
func (b *MergeBuffer) Stats() MBStats { return b.stats }

// CanAccept reports whether a store to va can enter without overflowing the
// pending-MBE backlog. A store merging into an existing line always fits;
// a new line fits if there is a free entry or an eviction slot (bounded
// backlog keeps the model finite).
func (b *MergeBuffer) CanAccept(va mem.Addr) bool {
	line := va.LineAddr()
	for i := 0; i < b.eN; i++ {
		if b.entryAt(i).lineVA == line {
			return true
		}
	}
	return b.pN < 2*b.cap
}

// mask returns the byte mask of an access within its line.
func maskFor(va mem.Addr, size uint8) uint64 {
	off := va.LineOffset()
	n := uint32(size)
	if off+n > mem.LineSize {
		n = mem.LineSize - off // truncate line-crossing stores (rare)
	}
	return ((uint64(1) << n) - 1) << off
}

// Insert coalesces a committed store. Callers must check CanAccept first.
func (b *MergeBuffer) Insert(va mem.Addr, size uint8) {
	b.stats.Inserts++
	line := va.LineAddr()
	m := maskFor(va, size)
	for i := 0; i < b.eN; i++ {
		if e := b.entryAt(i); e.lineVA == line {
			e.mask |= m
			b.stats.Merges++
			return
		}
	}
	if b.eN >= b.cap {
		b.evictOldest()
	}
	*b.entryAt(b.eN) = mbEntry{lineVA: line, mask: m}
	b.eN++
}

// evictOldest turns the oldest entry into a pending MBE.
func (b *MergeBuffer) evictOldest() {
	if b.pN >= len(b.pending) {
		panic("buffers: MBE backlog overflow (CanAccept not honored)")
	}
	e := b.entries[b.eHead]
	if b.eHead++; b.eHead == len(b.entries) {
		b.eHead = 0
	}
	b.eN--
	tail := b.pHead + b.pN
	if tail >= len(b.pending) {
		tail -= len(b.pending)
	}
	b.pending[tail] = MBE{LineVA: e.lineVA, Mask: e.mask}
	b.pN++
	b.stats.Evictions++
}

// NextMBE returns the oldest pending MBE without removing it.
func (b *MergeBuffer) NextMBE() (MBE, bool) {
	if b.pN == 0 {
		return MBE{}, false
	}
	return b.pending[b.pHead], true
}

// PopMBE removes the oldest pending MBE after the L1 write completed.
func (b *MergeBuffer) PopMBE() {
	if b.pN == 0 {
		panic("buffers: PopMBE on empty backlog")
	}
	if b.pHead++; b.pHead == len(b.pending) {
		b.pHead = 0
	}
	b.pN--
}

// Forward checks whether a load at va/size is fully covered by merged store
// bytes (MB forwarding).
func (b *MergeBuffer) Forward(va mem.Addr, size uint8) bool {
	b.stats.Lookups++
	line := va.LineAddr()
	need := maskFor(va, size)
	for i := 0; i < b.eN; i++ {
		if e := b.entryAt(i); e.lineVA == line && e.mask&need == need {
			b.stats.Forwards++
			return true
		}
	}
	return false
}

// Drain evicts all live entries into the pending backlog (used at end of
// simulation).
func (b *MergeBuffer) Drain() {
	for b.eN > 0 {
		b.evictOldest()
	}
}
