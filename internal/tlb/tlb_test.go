package tlb

import (
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
)

func newTLB(size int, policy string) *TLB {
	return New("t", size, NewPolicy(policy, size, rng.New(1)))
}

func TestLookupMissThenHit(t *testing.T) {
	tl := newTLB(4, "lru")
	if _, _, hit := tl.Lookup(10); hit {
		t.Fatal("unexpected hit")
	}
	idx := tl.Insert(10, 99)
	i, e, hit := tl.Lookup(10)
	if !hit || i != idx || e.PPage != 99 {
		t.Fatalf("lookup after insert: hit=%v i=%d e=%+v", hit, i, e)
	}
	st := tl.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReverseLookup(t *testing.T) {
	tl := newTLB(4, "lru")
	tl.Insert(10, 99)
	tl.Insert(11, 77)
	if _, e, hit := tl.ReverseLookup(77); !hit || e.VPage != 11 {
		t.Fatalf("reverse lookup failed: hit=%v e=%+v", hit, e)
	}
	if _, _, hit := tl.ReverseLookup(1); hit {
		t.Fatal("reverse lookup false positive")
	}
}

func TestLRUEviction(t *testing.T) {
	tl := newTLB(2, "lru")
	tl.Insert(1, 1)
	tl.Insert(2, 2)
	tl.Lookup(1) // make 2 the LRU
	var evicted []Entry
	tl.OnEvict = func(_ int, old Entry) { evicted = append(evicted, old) }
	tl.Insert(3, 3)
	if len(evicted) != 1 || evicted[0].VPage != 2 {
		t.Fatalf("evicted %+v, want vpage 2", evicted)
	}
	if _, _, hit := tl.Probe(1); !hit {
		t.Fatal("recently used entry evicted")
	}
}

func TestSecondChance(t *testing.T) {
	p := newSecondChance(3)
	p.Touch(0)
	p.Touch(1)
	// Entry 2 unreferenced: first victim.
	if v := p.Victim(); v != 2 {
		t.Fatalf("victim %d, want 2", v)
	}
	// All reference bits now cleared by the sweep or unset; the clock
	// hand continues from 0.
	if v := p.Victim(); v != 0 {
		t.Fatalf("victim %d, want 0", v)
	}
}

func TestFIFO(t *testing.T) {
	p := &fifoPolicy{size: 3}
	order := []int{p.Victim(), p.Victim(), p.Victim(), p.Victim()}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fifo order %v", order)
		}
	}
}

func TestRandomPolicyInRange(t *testing.T) {
	p := NewPolicy("random", 8, rng.New(3))
	for i := 0; i < 100; i++ {
		if v := p.Victim(); v < 0 || v >= 8 {
			t.Fatalf("victim %d out of range", v)
		}
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPolicy("bogus", 4, rng.New(1))
}

func TestInvalidate(t *testing.T) {
	tl := newTLB(4, "lru")
	tl.Insert(5, 50)
	tl.Invalidate(5)
	if _, _, hit := tl.Probe(5); hit {
		t.Fatal("entry survived invalidation")
	}
	tl.Invalidate(5) // no-op on absent entries
}

func TestPageTableDeterministicInjective(t *testing.T) {
	pt := NewPageTable()
	seen := map[mem.PageID]mem.PageID{}
	for v := mem.PageID(0); v < 2000; v++ {
		p := pt.Translate(v)
		if p2 := pt.Translate(v); p2 != p {
			t.Fatalf("translation unstable for %d: %d vs %d", v, p, p2)
		}
		for ov, op := range seen {
			if op == p {
				t.Fatalf("pages %d and %d share frame %d", ov, v, p)
			}
		}
		seen[v] = p
	}
	if pt.Pages() != 2000 {
		t.Fatalf("Pages() = %d", pt.Pages())
	}
}

func TestPageTableColoring(t *testing.T) {
	// Cache colouring: the frame's low bit must match the virtual page's
	// low bit so virtually adjacent pages land in different cache halves.
	pt := NewPageTable()
	for v := mem.PageID(0); v < 512; v++ {
		p := pt.Translate(v)
		if uint32(p)&1 != uint32(v)&1 {
			t.Fatalf("page %d: frame %d breaks colouring", v, p)
		}
	}
}

func TestPageTableAddr(t *testing.T) {
	pt := NewPageTable()
	va := mem.MakeAddr(7, 1234)
	pa := pt.TranslateAddr(va)
	if pa.PageOffset() != 1234 {
		t.Fatalf("offset not preserved: %v", pa.PageOffset())
	}
	if pa.Page() != pt.Translate(7) {
		t.Fatal("page translation mismatch")
	}
}

func newHierarchy() *Hierarchy {
	u := New("uTLB", 4, NewPolicy("second-chance", 4, rng.New(1)))
	m := New("TLB", 16, NewPolicy("random", 16, rng.New(2)))
	return &Hierarchy{U: u, Main: m, PT: NewPageTable(),
		TLBRefillLatency: 2, WalkLatency: 20}
}

func TestHierarchyLevels(t *testing.T) {
	h := newHierarchy()
	r1 := h.Translate(42)
	if r1.Level != LevelWalk || r1.Latency != 20 {
		t.Fatalf("first access %+v, want walk", r1)
	}
	r2 := h.Translate(42)
	if r2.Level != LevelUTLB || r2.Latency != 0 {
		t.Fatalf("second access %+v, want uTLB hit", r2)
	}
	if r2.PPage != r1.PPage {
		t.Fatal("translation changed")
	}
	// Evict 42 from the uTLB by filling it with other pages.
	for v := mem.PageID(100); v < 104; v++ {
		h.Translate(v)
	}
	r3 := h.Translate(42)
	if r3.Level != LevelTLB || r3.Latency != 2 {
		t.Fatalf("after uTLB eviction %+v, want TLB hit", r3)
	}
}

func TestHierarchyReverseLookup(t *testing.T) {
	h := newHierarchy()
	r := h.Translate(7)
	u, m := h.ReverseLookup(r.PPage)
	if u < 0 || m < 0 {
		t.Fatalf("reverse lookup failed: u=%d m=%d", u, m)
	}
	if u2, m2 := h.ReverseLookup(0xABCDE); u2 >= 0 || m2 >= 0 {
		t.Fatal("reverse lookup false positive")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{LevelUTLB: "uTLB", LevelTLB: "TLB", LevelWalk: "walk"} {
		if l.String() != want {
			t.Fatalf("Level %d String = %q", l, l.String())
		}
	}
}

func TestStatsMissRate(t *testing.T) {
	s := Stats{Lookups: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Fatalf("MissRate = %v", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("zero stats MissRate should be 0")
	}
}

// TestPageTableSlotsAt16KPages pins the page table's size at ptrchase's
// footprint: 16,384 pages fit in 32,768 slots, whether the table grows
// page by page or a restore sizes it, because tables double at half
// occupancy (65,536 slots when they grew 4x).
func TestPageTableSlotsAt16KPages(t *testing.T) {
	const pages = 16384
	pt := NewPageTable()
	for v := mem.PageID(0); v < pages; v++ {
		pt.Translate(v)
	}
	sized := NewPageTable()
	sized.reset(pages)
	for name, got := range map[string]int{"grown": len(pt.fwd.slots), "sized": len(sized.fwd.slots)} {
		if got != 2*pages {
			t.Errorf("%s table of %d pages holds %d slots, want %d", name, pages, got, 2*pages)
		}
	}
}
