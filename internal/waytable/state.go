package waytable

// This file is the way-determination side of the microarchitectural
// checkpoint layer: exported, JSON-able snapshots of the full Table, the
// SegmentedTable, the WDU and the PageSystem's coverage counters. The two
// table kinds snapshot into a small tagged union (StoreState) so a
// checkpoint is self-describing; restores rebuild the page chain indexes
// and free bitmaps from the restored contents without replaying history.
// A restore first checks that the snapshot fits the table's geometry and
// changes nothing when it does not.

import (
	"fmt"

	"malec/internal/mem"
)

// arrayLen pairs a snapshot array's length with the length the restoring
// structure needs.
type arrayLen struct {
	name      string
	got, want int
}

// checkLens reports the first snapshot array of owner whose length does
// not fit.
func checkLens(owner string, lens ...arrayLen) error {
	for _, l := range lens {
		if l.got != l.want {
			return fmt.Errorf("waytable: %s snapshot %s has %d entries, want %d", owner, l.name, l.got, l.want)
		}
	}
	return nil
}

// TableState is a complete snapshot of a full way table. Line codes are
// flattened mem.LinesPerPage per slot.
type TableState struct {
	Codes []uint8
	Pages []mem.PageID
	Valid []bool
	Stats TableStats
}

// CaptureState snapshots the table. The receiver is unmodified.
func (t *Table) CaptureState() TableState {
	st := TableState{
		Codes: make([]uint8, len(t.entries)*mem.LinesPerPage),
		Pages: make([]mem.PageID, len(t.pages)),
		Valid: make([]bool, len(t.valid)),
		Stats: t.stats,
	}
	for i := range t.entries {
		copy(st.Codes[i*mem.LinesPerPage:], t.entries[i].codes[:])
	}
	copy(st.Pages, t.pages)
	copy(st.Valid, t.valid)
	return st
}

// CheckState reports whether st fits the table.
func (t *Table) CheckState(st TableState) error {
	return checkLens(t.Name,
		arrayLen{"codes", len(st.Codes), len(t.entries) * mem.LinesPerPage},
		arrayLen{"pages", len(st.Pages), len(t.pages)},
		arrayLen{"valid", len(st.Valid), len(t.valid)})
}

// RestoreState replaces the table's state with a same-size snapshot,
// rebuilding the page chain index from the restored slots.
func (t *Table) RestoreState(st TableState) error {
	if err := t.CheckState(st); err != nil {
		return err
	}
	for i := range t.entries {
		copy(t.entries[i].codes[:], st.Codes[i*mem.LinesPerPage:(i+1)*mem.LinesPerPage])
	}
	copy(t.pages, st.Pages)
	copy(t.valid, st.Valid)
	t.stats = st.Stats
	t.idx.Reset()
	for i := range t.valid {
		if t.valid[i] {
			t.idx.Add(uint32(t.pages[i]), int32(i))
		}
	}
	return nil
}

// SegSlotState is the exported form of one segmented-table slot.
type SegSlotState struct {
	Page  mem.PageID
	Valid bool
}

// SegmentedState is a complete snapshot of a segmented way table.
type SegmentedState struct {
	Slots     []SegSlotState
	PoolOwner []int32 // owning slot per pool chunk, -1 when free
	PoolPart  []uint32
	Codes     []uint8
	ChunkOf   []int32
	Fifo      int
	Stats     TableStats
}

// CaptureState snapshots the segmented table.
func (t *SegmentedTable) CaptureState() SegmentedState {
	st := SegmentedState{
		Slots:     make([]SegSlotState, len(t.slots)),
		PoolOwner: make([]int32, len(t.pool)),
		PoolPart:  make([]uint32, len(t.pool)),
		Codes:     make([]uint8, len(t.codes)),
		ChunkOf:   make([]int32, len(t.chunkOf)),
		Fifo:      t.fifo,
		Stats:     t.stats,
	}
	for i, s := range t.slots {
		st.Slots[i] = SegSlotState{Page: s.page, Valid: s.valid}
	}
	for i, c := range t.pool {
		st.PoolOwner[i] = c.owner
		st.PoolPart[i] = c.part
	}
	copy(st.Codes, t.codes)
	copy(st.ChunkOf, t.chunkOf)
	return st
}

// CheckState reports whether st fits the segmented table's geometry.
func (t *SegmentedTable) CheckState(st SegmentedState) error {
	return checkLens(t.name,
		arrayLen{"slots", len(st.Slots), len(t.slots)},
		arrayLen{"pool owners", len(st.PoolOwner), len(t.pool)},
		arrayLen{"pool parts", len(st.PoolPart), len(t.pool)},
		arrayLen{"codes", len(st.Codes), len(t.codes)},
		arrayLen{"chunk map", len(st.ChunkOf), len(t.chunkOf)})
}

// RestoreState replaces the segmented table's state with a same-geometry
// snapshot, rebuilding the free bitmap and page chain index.
func (t *SegmentedTable) RestoreState(st SegmentedState) error {
	if err := t.CheckState(st); err != nil {
		return err
	}
	for i, s := range st.Slots {
		t.slots[i] = segSlot{page: s.Page, valid: s.Valid}
	}
	t.freeCount = 0
	for i := range t.freeMask {
		t.freeMask[i] = 0
	}
	for i := range t.pool {
		t.pool[i] = segChunk{owner: st.PoolOwner[i], part: st.PoolPart[i]}
		if st.PoolOwner[i] < 0 {
			t.freeMask[i>>6] |= 1 << uint(i&63)
			t.freeCount++
		}
	}
	copy(t.codes, st.Codes)
	copy(t.chunkOf, st.ChunkOf)
	t.fifo = st.Fifo
	t.stats = st.Stats
	t.idx.Reset()
	for i := range t.slots {
		if t.slots[i].valid {
			t.idx.Add(uint32(t.slots[i].page), int32(i))
		}
	}
	return nil
}

// StoreState is the tagged union over the two way-store snapshot kinds,
// making checkpoints self-describing.
type StoreState struct {
	Table     *TableState     `json:",omitempty"`
	Segmented *SegmentedState `json:",omitempty"`
}

// CaptureStore snapshots any Store implementation.
func CaptureStore(s Store) StoreState {
	switch t := s.(type) {
	case *Table:
		st := t.CaptureState()
		return StoreState{Table: &st}
	case *SegmentedTable:
		st := t.CaptureState()
		return StoreState{Segmented: &st}
	default:
		panic("waytable: unknown Store kind in CaptureStore")
	}
}

// CheckStore reports whether st is a snapshot of s's kind that fits it.
func CheckStore(s Store, st StoreState) error {
	switch t := s.(type) {
	case *Table:
		if st.Table == nil {
			return fmt.Errorf("waytable: %s snapshot is not a full table", t.Name)
		}
		return t.CheckState(*st.Table)
	case *SegmentedTable:
		if st.Segmented == nil {
			return fmt.Errorf("waytable: %s snapshot is not a segmented table", t.name)
		}
		return t.CheckState(*st.Segmented)
	default:
		panic("waytable: unknown Store kind in CheckStore")
	}
}

// RestoreStore restores any Store implementation from its snapshot, which
// must pass CheckStore.
func RestoreStore(s Store, st StoreState) error {
	if err := CheckStore(s, st); err != nil {
		return err
	}
	if t, ok := s.(*Table); ok {
		return t.RestoreState(*st.Table)
	}
	return s.(*SegmentedTable).RestoreState(*st.Segmented)
}

// WDUState is a complete snapshot of a WDU.
type WDUState struct {
	Lines  []mem.Addr
	Ways   []int8
	Valid  []bool
	Stamps []uint64
	Clock  uint64
	Stats  WDUStats
	Known  uint64
	Total  uint64
}

// CaptureState snapshots the WDU.
func (w *WDU) CaptureState() WDUState {
	st := WDUState{
		Lines:  make([]mem.Addr, len(w.entries)),
		Ways:   make([]int8, len(w.entries)),
		Valid:  make([]bool, len(w.entries)),
		Stamps: make([]uint64, len(w.entries)),
		Clock:  w.clock,
		Stats:  w.stats,
		Known:  w.known,
		Total:  w.total,
	}
	for i, e := range w.entries {
		st.Lines[i] = e.line
		st.Ways[i] = e.way
		st.Valid[i] = e.valid
		st.Stamps[i] = e.stamp
	}
	return st
}

// CheckState reports whether st fits the WDU.
func (w *WDU) CheckState(st WDUState) error {
	n := len(w.entries)
	return checkLens("WDU",
		arrayLen{"lines", len(st.Lines), n},
		arrayLen{"ways", len(st.Ways), n},
		arrayLen{"valid", len(st.Valid), n},
		arrayLen{"stamps", len(st.Stamps), n})
}

// RestoreState replaces the WDU's state with a same-size snapshot.
func (w *WDU) RestoreState(st WDUState) error {
	if err := w.CheckState(st); err != nil {
		return err
	}
	for i := range w.entries {
		w.entries[i] = wduEntry{
			line:  st.Lines[i],
			way:   st.Ways[i],
			valid: st.Valid[i],
			stamp: st.Stamps[i],
		}
	}
	w.clock = st.Clock
	w.stats = st.Stats
	w.known = st.Known
	w.total = st.Total
	return nil
}

// PageSystemState is a complete snapshot of a PageSystem: both way stores
// plus the coverage and feedback counters.
type PageSystemState struct {
	UWT   StoreState
	WT    StoreState
	Known uint64
	Total uint64
	Fed   uint64
}

// CaptureState snapshots the page system.
func (s *PageSystem) CaptureState() PageSystemState {
	return PageSystemState{
		UWT:   CaptureStore(s.UWT),
		WT:    CaptureStore(s.WT),
		Known: s.known,
		Total: s.total,
		Fed:   s.fed,
	}
}

// CheckState reports whether st fits both of the page system's stores.
func (s *PageSystem) CheckState(st PageSystemState) error {
	if err := CheckStore(s.UWT, st.UWT); err != nil {
		return err
	}
	return CheckStore(s.WT, st.WT)
}

// RestoreState restores the page system from a same-configuration snapshot.
func (s *PageSystem) RestoreState(st PageSystemState) error {
	if err := s.CheckState(st); err != nil {
		return err
	}
	if err := RestoreStore(s.UWT, st.UWT); err != nil {
		return err
	}
	if err := RestoreStore(s.WT, st.WT); err != nil {
		return err
	}
	s.known = st.Known
	s.total = st.Total
	s.fed = st.Fed
	return nil
}
