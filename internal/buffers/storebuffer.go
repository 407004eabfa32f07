// Package buffers implements the load/store-side queues of the L1
// interface: the load queue (LQ), the store buffer (SB) holding speculative
// stores until commit, and the merge buffer (MB) coalescing committed
// stores per cache line before they are written to the L1 (paper Tab. II:
// 40 LQ entries, 24 SB entries, 4 MB entries).
//
// Data values are not simulated; forwarding decisions are made from address
// ranges, which is sufficient for timing and energy accounting.
package buffers

import (
	"malec/internal/mem"
)

// SBEntry is one speculative store awaiting commit.
type SBEntry struct {
	Seq  uint64
	VA   mem.Addr
	Size uint8
	// Committed marks entries whose instruction retired and which are
	// waiting for merge-buffer space.
	Committed bool
}

// SBStats counts store-buffer activity.
type SBStats struct {
	Inserts      uint64
	Lookups      uint64 // load forwarding searches
	ForwardHits  uint64 // loads fully covered by a store
	PartialHits  uint64 // overlapping but not covering (conservatively no forward)
	CommitStalls uint64 // commits delayed by a full merge buffer
}

// StoreBuffer holds speculative stores in program order. Storage is a
// fixed ring sized to the configured capacity, so steady-state operation
// (insert at tail, drain at head) performs no allocation.
type StoreBuffer struct {
	entries []SBEntry // ring storage, len == capacity
	head    int       // index of the oldest entry
	n       int       // live entries
	stats   SBStats
}

// NewStoreBuffer returns a store buffer with the given capacity.
func NewStoreBuffer(capacity int) *StoreBuffer {
	b := new(StoreBuffer)
	b.Init(capacity)
	return b
}

// Init empties the buffer and clears its statistics, as NewStoreBuffer
// (capacity) builds it, keeping its ring when it has that capacity.
func (b *StoreBuffer) Init(capacity int) {
	*b = StoreBuffer{entries: mem.Resize(b.entries, capacity)}
}

// at returns the i-th live entry, oldest first.
func (b *StoreBuffer) at(i int) *SBEntry {
	i += b.head
	if i >= len(b.entries) {
		i -= len(b.entries)
	}
	return &b.entries[i]
}

// Len returns the current occupancy.
func (b *StoreBuffer) Len() int { return b.n }

// Full reports whether the buffer can accept no more stores.
func (b *StoreBuffer) Full() bool { return b.n >= len(b.entries) }

// HasCommittedHead reports whether the oldest store has committed and is
// waiting to drain into the merge buffer — deferred work: DrainCommitted
// will act on it (or count a commit stall) every cycle until it moves.
func (b *StoreBuffer) HasCommittedHead() bool {
	return b.n > 0 && b.entries[b.head].Committed
}

// Stats returns a copy of the activity counters.
func (b *StoreBuffer) Stats() SBStats { return b.stats }

// Insert appends a store finishing address computation. It returns false
// (structural stall) when full.
func (b *StoreBuffer) Insert(seq uint64, va mem.Addr, size uint8) bool {
	if b.Full() {
		return false
	}
	*b.at(b.n) = SBEntry{Seq: seq, VA: va, Size: size}
	b.n++
	b.stats.Inserts++
	return true
}

// Commit marks the store with sequence number seq as committed (its
// instruction retired). Committed entries drain to the merge buffer in
// order via DrainCommitted.
func (b *StoreBuffer) Commit(seq uint64) {
	for i := 0; i < b.n; i++ {
		if e := b.at(i); e.Seq == seq {
			e.Committed = true
			return
		}
	}
}

// DrainCommitted moves committed entries (in order, from the head) into the
// merge buffer while mb accepts them. Entries blocked by a full MB remain.
func (b *StoreBuffer) DrainCommitted(mb *MergeBuffer) {
	for b.n > 0 && b.entries[b.head].Committed {
		e := b.entries[b.head]
		if !mb.CanAccept(e.VA) {
			b.stats.CommitStalls++
			return
		}
		mb.Insert(e.VA, e.Size)
		if b.head++; b.head == len(b.entries) {
			b.head = 0
		}
		b.n--
	}
}

// overlaps reports whether [aStart,aEnd) and [bStart,bEnd) intersect.
func overlaps(aStart, aEnd, bStart, bEnd uint64) bool {
	return aStart < bEnd && bStart < aEnd
}

// Forward checks whether a load at va/size can be serviced by a buffered
// store. It returns full=true when some single store covers the load
// completely (forwarding), and partial=true when stores overlap the load
// without covering it (the conservative model falls back to the cache).
func (b *StoreBuffer) Forward(va mem.Addr, size uint8) (full, partial bool) {
	b.stats.Lookups++
	ls, le := uint64(va.Canon()), uint64(va.Canon())+uint64(size)
	for i := b.n - 1; i >= 0; i-- {
		e := b.at(i)
		ss, se := uint64(e.VA.Canon()), uint64(e.VA.Canon())+uint64(e.Size)
		if ss <= ls && le <= se {
			b.stats.ForwardHits++
			return true, false
		}
		if overlaps(ls, le, ss, se) {
			partial = true
		}
	}
	if partial {
		b.stats.PartialHits++
	}
	return false, partial
}

// LoadQueue bounds the number of in-flight loads (allocation at dispatch,
// release at completion).
type LoadQueue struct {
	cap  int
	used int
}

// Init empties q and sets its capacity. The zero LoadQueue is ready for
// Init.
func (q *LoadQueue) Init(capacity int) { *q = LoadQueue{cap: capacity} }

// TryAlloc claims a slot, reporting false when the queue is full.
func (q *LoadQueue) TryAlloc() bool {
	if q.used >= q.cap {
		return false
	}
	q.used++
	return true
}

// Release frees a slot.
func (q *LoadQueue) Release() {
	if q.used == 0 {
		panic("buffers: LoadQueue release underflow")
	}
	q.used--
}

// Len returns current occupancy.
func (q *LoadQueue) Len() int { return q.used }
