package mem

// SlotIndex is the compact hash index backing the O(1) lookup paths of the
// TLBs, way tables and the L2 residency check: a bucket-head array plus one
// intrusive chain link per slot. The indexed structures already store each
// slot's key (VPage/PPage/page/line address), so the index holds no keys at
// all — callers walk a key's bucket chain and compare against their own
// storage. All arrays are sized at construction and every operation is
// allocation-free; removal is a plain chain unlink (no tombstones, no
// backward shifting), which matters on eviction-heavy workloads where
// insert/remove pairs outnumber lookups.
//
// Chains may contain several slots whose keys collide into one bucket —
// including genuine duplicates of the same key — so lookup semantics
// (e.g. "lowest slot wins", matching what a linear scan returns) are the
// caller's choice during the walk.
type SlotIndex struct {
	heads []int32
	next  []int32
	shift uint32
}

// Init empties ix for slot numbers 0..slots-1, with at least 4*slots
// buckets (chains stay near length one even fully populated), keeping its
// arrays when they already have that size. The zero SlotIndex is ready
// for Init.
func (ix *SlotIndex) Init(slots int) {
	n := 8
	for n < 4*slots {
		n <<= 1
	}
	shift := uint32(32)
	for 1<<(32-shift) < n {
		shift--
	}
	ix.heads = Resize(ix.heads, n)
	ix.next = Resize(ix.next, slots)
	ix.shift = shift
	ix.Reset()
}

// Reset empties every bucket chain, returning the index to its
// just-constructed state. Checkpoint restores use it to rebuild an index
// from restored slot contents instead of replaying the eviction history.
func (ix *SlotIndex) Reset() {
	for i := range ix.heads {
		ix.heads[i] = -1
	}
	for i := range ix.next {
		ix.next[i] = -1
	}
}

// bucket spreads keys over the bucket array (Fibonacci multiplicative
// hashing on the high bits; page IDs and line IDs are often sequential,
// which this breaks up).
func (ix *SlotIndex) bucket(key uint32) uint32 {
	return (key * 2654435761) >> ix.shift
}

// First returns the first slot in key's bucket chain, or -1. The chain may
// contain colliding slots; the caller compares keys against its own
// storage and continues with Next.
func (ix *SlotIndex) First(key uint32) int32 { return ix.heads[ix.bucket(key)] }

// Next returns the slot chained after slot, or -1 at the chain's end.
func (ix *SlotIndex) Next(slot int32) int32 { return ix.next[slot] }

// Add links slot into key's bucket chain. The slot must not currently be
// in any chain.
func (ix *SlotIndex) Add(key uint32, slot int32) {
	b := ix.bucket(key)
	ix.next[slot] = ix.heads[b]
	ix.heads[b] = slot
}

// Remove unlinks slot from key's bucket chain (a no-op if absent).
func (ix *SlotIndex) Remove(key uint32, slot int32) {
	b := ix.bucket(key)
	i := ix.heads[b]
	if i == slot {
		ix.heads[b] = ix.next[slot]
		ix.next[slot] = -1
		return
	}
	for i >= 0 {
		n := ix.next[i]
		if n == slot {
			ix.next[i] = ix.next[slot]
			ix.next[slot] = -1
			return
		}
		i = n
	}
}
