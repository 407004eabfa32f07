package tlb

// This file is the translation side of the microarchitectural checkpoint
// layer: exported, JSON-able snapshots of a TLB array (entries, statistics
// and replacement-policy metadata) and of the page table. Restores rebuild
// the derived lookup structures (chain indexes, free mask, live count,
// used-frame set) from the restored contents and never fire the
// OnInsert/OnEvict hooks — a restore transplants state, it does not replay
// the insertion history, and chain-order differences are invisible because
// lookups resolve duplicates to the lowest index. A restore first checks
// that the snapshot fits and changes nothing when it does not.

import (
	"fmt"

	"malec/internal/mem"
)

// TLBState is a complete snapshot of one TLB's mutable state.
type TLBState struct {
	Entries []Entry
	Stats   Stats
	// Policy is the replacement policy's serialized metadata (Policy.State).
	Policy []uint64
}

// CaptureState snapshots the TLB. The receiver is unmodified.
func (t *TLB) CaptureState() TLBState {
	st := TLBState{
		Entries: make([]Entry, len(t.entries)),
		Stats:   t.stats,
		Policy:  t.pol.State(),
	}
	copy(st.Entries, t.entries)
	return st
}

// CheckState reports whether st fits the TLB: one entry per slot and
// policy metadata of the length the TLB's policy serializes.
func (t *TLB) CheckState(st TLBState) error {
	if len(st.Entries) != len(t.entries) {
		return fmt.Errorf("tlb: %s snapshot has %d entries, want %d", t.Name, len(st.Entries), len(t.entries))
	}
	if want := t.pol.StateLen(); len(st.Policy) != want {
		return fmt.Errorf("tlb: %s snapshot has %d policy words, want %d", t.Name, len(st.Policy), want)
	}
	return nil
}

// RestoreState replaces the TLB's state with a snapshot from a same-size
// TLB, rebuilding the chain indexes, free mask and live count from the
// restored entries. No OnInsert/OnEvict hooks fire.
func (t *TLB) RestoreState(st TLBState) error {
	if err := t.CheckState(st); err != nil {
		return err
	}
	copy(t.entries, st.Entries)
	t.stats = st.Stats
	t.pol.SetState(st.Policy)
	t.vIdx.Reset()
	t.pIdx.Reset()
	for i := range t.freeMask {
		t.freeMask[i] = 0
	}
	t.live = 0
	for i := range t.entries {
		if t.entries[i].Valid {
			t.vIdx.Add(uint32(t.entries[i].VPage), int32(i))
			t.pIdx.Add(uint32(t.entries[i].PPage), int32(i))
			t.live++
		} else {
			t.freeMask[i>>6] |= 1 << uint(i&63)
		}
	}
	return nil
}

// PageTableState is a complete snapshot of a page table: its virtual
// pages in first-touch order. Frames are handed out in that order, so
// replaying Translate over it rebuilds the same frames, next-frame counter
// and used-frame set.
type PageTableState struct {
	Pages []mem.PageID
}

// CaptureState snapshots the page table. Each mapping's first-touch
// position is its frame number, kept in the map, so no sort is needed.
func (pt *PageTable) CaptureState() PageTableState {
	st := PageTableState{Pages: make([]mem.PageID, pt.fwd.n)}
	for _, e := range pt.fwd.slots {
		if e.seq != 0 {
			st.Pages[e.seq-1] = e.key
		}
	}
	return st
}

// RestoreState rebuilds the page table by replaying the snapshot's first
// touches into the spare table, which swaps with the receiver's storage
// only when every page was new: a repeated page means a damaged snapshot,
// and leaves the receiver unchanged.
func (pt *PageTable) RestoreState(st PageTableState) error {
	fresh := pt.spare
	if fresh == nil {
		fresh = new(PageTable)
	}
	pt.spare = fresh
	fresh.reset(len(st.Pages))
	for i, v := range st.Pages {
		fresh.Translate(v)
		if int(fresh.next) != i+1 {
			return fmt.Errorf("tlb: page table snapshot repeats page %d", v)
		}
	}
	pt.fwd, fresh.fwd = fresh.fwd, pt.fwd
	pt.used, fresh.used = fresh.used, pt.used
	pt.next = fresh.next
	return nil
}
