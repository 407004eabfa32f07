package waytable

import (
	"fmt"
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
	"malec/internal/tlb"
)

// scanSlot is the SlotFor oracle: the lowest valid slot describing page p,
// or -1, found by scanning the store's slot array.
func scanSlot(st Store, p mem.PageID) int {
	switch t := st.(type) {
	case *Table:
		for i := range t.pages {
			if t.valid[i] && t.pages[i] == p {
				return i
			}
		}
	case *SegmentedTable:
		for i, s := range t.slots {
			if s.valid && s.page == p {
				return i
			}
		}
	default:
		panic(fmt.Sprintf("waytable: no SlotFor oracle for %T", st))
	}
	return -1
}

// checkSlots compares SlotFor with the scan oracle for pages 0..pages-1.
func checkSlots(t *testing.T, op int, st Store, pages int) {
	t.Helper()
	for p := mem.PageID(0); p < mem.PageID(pages); p++ {
		if got, want := st.SlotFor(p), scanSlot(st, p); got != want {
			t.Fatalf("op %d: SlotFor(%d) = %d, oracle %d", op, p, got, want)
		}
	}
}

// driveStores runs a randomized slot/line workload against one store and
// checks SlotFor against the scan oracle for every page after every
// operation. The page space is small enough that slots are recycled and
// (via direct Reset calls) duplicate pages occur, and for segmented tables
// the pool is undersized so FIFO chunk replacement engages.
func driveStores(t *testing.T, st Store, slots int) {
	t.Helper()
	const pageSpace = 16
	const ops = 30000
	drv := rng.New(42)
	for op := 0; op < ops; op++ {
		idx := drv.Intn(slots)
		page := mem.PageID(drv.Intn(pageSpace))
		line := uint32(drv.Intn(mem.LinesPerPage))
		way := drv.Intn(mem.L1Ways)
		switch drv.Intn(6) {
		case 0:
			st.Reset(idx, page)
		case 1:
			st.InvalidateSlot(idx)
		case 2:
			st.SetLine(idx, line, way)
		case 3:
			st.InvalidateLine(idx, line)
		case 4:
			st.Read(idx, line)
		case 5:
			st.CopyFrom(drv.Intn(slots), st, idx)
		}
		checkSlots(t, op, st, pageSpace)
	}
}

// TestTableIndexedMatchesScanRandomized checks the full Table's indexed
// SlotFor against the scan oracle over a randomized workload.
func TestTableIndexedMatchesScanRandomized(t *testing.T) {
	driveStores(t, NewTable("idx", 8), 8)
}

// TestSegmentedIndexedMatchesScanRandomized checks the segmented table's
// indexed SlotFor against the scan oracle under pool pressure (pool half
// the full-table chunk demand, so FIFO replacement runs).
func TestSegmentedIndexedMatchesScanRandomized(t *testing.T) {
	const slots, chunkLines = 8, 16
	pool := slots * (mem.LinesPerPage / chunkLines) / 2
	driveStores(t, NewSegmentedTable("idx", slots, chunkLines, pool), slots)
}

// scanTLB is the TLB lookup oracle: the lowest valid entry whose virtual
// (phys false) or physical (phys true) page is p, or -1.
func scanTLB(t *tlb.TLB, p mem.PageID, phys bool) int {
	for i := 0; i < t.Size(); i++ {
		e := t.Entry(i)
		if e.Valid && (!phys && e.VPage == p || phys && e.PPage == p) {
			return i
		}
	}
	return -1
}

// checkLockstep verifies that way store st mirrors TLB tl slot for slot —
// the invariant every TLB OnEvict/OnInsert hook maintains — and that
// SlotFor matches the scan oracle for every resident page.
func checkLockstep(t *testing.T, op int, tl *tlb.TLB, st Store) {
	t.Helper()
	for i := 0; i < tl.Size(); i++ {
		e := tl.Entry(i)
		page, ok := st.PageAt(i)
		if ok != e.Valid || ok && page != e.PPage {
			t.Fatalf("op %d: %s slot %d holds %+v, way store (%d,%v)", op, tl.Name, i, e, page, ok)
		}
		if ok {
			if got, want := st.SlotFor(page), scanSlot(st, page); got != want {
				t.Fatalf("op %d: %s SlotFor(%d) = %d, oracle %d", op, tl.Name, page, got, want)
			}
		}
	}
}

// TestPageSystemHookOrderIndexedVsScan builds a complete hierarchy and page
// system and drives translate/fill/evict/feedback traffic through it. Every
// translation and reverse lookup is checked against the TLB scan oracle,
// and after every operation the uWT/WT must mirror the uTLB/TLB slot for
// slot with SlotFor matching its scan oracle: the state the TLB hooks
// (through which all WT/uWT synchronization flows) must leave behind when
// run in the right order.
func TestPageSystemHookOrderIndexedVsScan(t *testing.T) {
	u := tlb.New("uTLB", 4, tlb.NewPolicy("second-chance", 4, rng.New(1)))
	m := tlb.New("TLB", 16, tlb.NewPolicy("random", 16, rng.New(2)))
	h := &tlb.Hierarchy{U: u, Main: m, PT: tlb.NewPageTable()}
	sys := NewPageSystem(h)
	drv := rng.New(17)
	for op := 0; op < 20000; op++ {
		page := mem.PageID(drv.Intn(64))
		off := uint32(drv.Intn(mem.PageSize)) &^ 7
		switch drv.Intn(4) {
		case 0, 1:
			level, ui := tlb.LevelWalk, scanTLB(u, page, false)
			if ui >= 0 {
				level = tlb.LevelUTLB
			} else if scanTLB(m, page, false) >= 0 {
				level = tlb.LevelTLB
			}
			r := h.Translate(page)
			if r.Level != level || level == tlb.LevelUTLB && r.UIdx != ui {
				t.Fatalf("op %d: Translate(%d) = %+v, oracle level %v uIdx %d", op, page, r, level, ui)
			}
			pa := mem.MakeAddr(r.PPage, off)
			if _, known := sys.Lookup(pa, r.UIdx); !known {
				sys.Feedback(pa, r.UIdx, drv.Intn(mem.L1Ways))
			}
		case 2, 3:
			pa := mem.MakeAddr(mem.PageID(drv.Intn(1<<14)), off)
			ui, ti := h.ReverseLookup(pa.Page())
			if want := scanTLB(u, pa.Page(), true); ui != want {
				t.Fatalf("op %d: uTLB ReverseLookup(%d) = %d, oracle %d", op, pa.Page(), ui, want)
			}
			if want := scanTLB(m, pa.Page(), true); ti != want {
				t.Fatalf("op %d: TLB ReverseLookup(%d) = %d, oracle %d", op, pa.Page(), ti, want)
			}
			if op%2 == 0 {
				sys.OnFill(pa.LineAddr(), 0, drv.Intn(mem.L1Ways))
			} else {
				sys.OnEvict(pa.LineAddr(), 0, 0)
			}
		}
		checkLockstep(t, op, u, sys.UWT)
		checkLockstep(t, op, m, sys.WT)
	}
}

// BenchmarkWayTableRead measures the way-table hot path — SlotFor (the
// reverse-lookup-driven maintenance entry point) followed by an entry
// read — for the full and segmented tables: the indexed SlotFor against
// the scanSlot oracle.
func BenchmarkWayTableRead(b *testing.B) {
	const slots = 64
	mk := func(seg bool) Store {
		if seg {
			return NewSegmentedTable("seg", slots, 16, slots*4)
		}
		return NewTable("full", slots)
	}
	for _, bench := range []struct {
		name    string
		seg     bool
		slotFor func(Store, mem.PageID) int
	}{
		{"table/indexed", false, Store.SlotFor},
		{"table/scan", false, scanSlot},
		{"segmented/indexed", true, Store.SlotFor},
		{"segmented/scan", true, scanSlot},
	} {
		b.Run(bench.name, func(b *testing.B) {
			st := mk(bench.seg)
			for i := 0; i < slots; i++ {
				st.Reset(i, mem.PageID(100+i))
				for l := uint32(0); l < mem.LinesPerPage; l += 2 {
					st.SetLine(i, l, int(l/4)%mem.L1Ways)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page := mem.PageID(100 + i%slots)
				s := bench.slotFor(st, page)
				if s < 0 {
					b.Fatal("resident page has no slot")
				}
				st.Read(s, uint32(i)%mem.LinesPerPage)
			}
		})
	}
}
