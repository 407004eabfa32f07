package mem

// PageSet is a growable open-addressed PageID set used where a Go map is
// measurable on a hot path (page-table frame bookkeeping): key and presence are fused in one slot
// so a probe touches a single cache line, and the table doubles at half
// occupancy, as the page table's map does (tlb.ptInitialSlots).
type PageSet struct {
	slots []pageSetEntry
	n     int
}

type pageSetEntry struct {
	key  PageID
	used bool
}

// Reset empties the set and sizes it for slots slots (a power of two),
// keeping its storage when that already has at least as many.
func (s *PageSet) Reset(slots int) {
	if len(s.slots) < slots {
		s.init(slots)
		return
	}
	clear(s.slots)
	s.n = 0
}

func (s *PageSet) init(slots int) {
	s.slots = make([]pageSetEntry, slots)
	s.n = 0
}

// Len returns the number of distinct pages added.
func (s *PageSet) Len() int { return s.n }

// Has reports whether k is in the set.
func (s *PageSet) Has(k PageID) bool {
	mask := uint32(len(s.slots) - 1)
	for i := (uint32(k) * 2654435761) & mask; ; i = (i + 1) & mask {
		e := &s.slots[i]
		if !e.used {
			return false
		}
		if e.key == k {
			return true
		}
	}
}

// Add inserts k (a no-op if present).
func (s *PageSet) Add(k PageID) {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.init(2 * len(old))
		for i := range old {
			if old[i].used {
				s.Add(old[i].key)
			}
		}
	}
	mask := uint32(len(s.slots) - 1)
	for i := (uint32(k) * 2654435761) & mask; ; i = (i + 1) & mask {
		e := &s.slots[i]
		if !e.used {
			*e = pageSetEntry{key: k, used: true}
			s.n++
			return
		}
		if e.key == k {
			return
		}
	}
}
