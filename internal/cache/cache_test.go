package cache

import (
	"testing"
	"testing/quick"

	"malec/internal/mem"
)

func TestConventionalReadMissAndFill(t *testing.T) {
	c := NewL1()
	pa := mem.Addr(0x10040)
	if _, hit := c.ReadConventional(pa); hit {
		t.Fatal("cold cache hit")
	}
	way, _, wb := c.Fill(pa)
	if wb {
		t.Fatal("writeback from cold cache")
	}
	gotWay, hit := c.ReadConventional(pa)
	if !hit || gotWay != way {
		t.Fatalf("hit=%v way=%d, want way %d", hit, gotWay, way)
	}
	st := c.Stats()
	if st.Loads != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Conventional access reads all tag and data ways.
	if st.TagWayReads != 2*uint64(c.Ways()) || st.DataWayReads != 2*uint64(c.Ways()) {
		t.Fatalf("array read counts %+v", st)
	}
}

func TestReducedRead(t *testing.T) {
	c := NewL1()
	pa := mem.Addr(0x20080)
	way, _, _ := c.Fill(pa)
	before := c.Stats()
	c.ReadReduced(pa, way)
	st := c.Stats()
	if st.DataWayReads != before.DataWayReads+1 {
		t.Fatal("reduced read must touch exactly one data way")
	}
	if st.TagWayReads != before.TagWayReads {
		t.Fatal("reduced read must bypass tags")
	}
	if st.ReducedReads != 1 {
		t.Fatalf("ReducedReads = %d", st.ReducedReads)
	}
}

func TestReducedReadPanicsOnWrongWay(t *testing.T) {
	c := NewL1()
	pa := mem.Addr(0x20080)
	way, _, _ := c.Fill(pa)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: way-table guarantee violated")
		}
	}()
	c.ReadReduced(pa, (way+1)%c.Ways())
}

func TestWriteDirtyAndWriteback(t *testing.T) {
	c := NewL1Custom(mem.NumBanks, 1) // 4 sets, direct-mapped: easy eviction
	pa := mem.Addr(0x0)
	c.Fill(pa)
	if _, hit := c.Write(pa); !hit {
		t.Fatal("write to resident line missed")
	}
	// Fill a conflicting line (same set): 4 sets * 64B = 256B stride.
	way, victim, wb := c.Fill(pa + 256)
	if way != 0 || !wb || victim != pa.LineAddr() {
		t.Fatalf("eviction: way=%d victim=%v wb=%v", way, victim, wb)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := NewL1Custom(mem.NumBanks, 2) // 4 sets, 2 ways
	a := mem.Addr(0)
	b := a + 256 // same set
	d := a + 512 // same set
	c.Fill(a)
	c.Fill(b)
	c.ReadConventional(a) // b becomes LRU
	_, victim, _ := c.Fill(d)
	if victim != b.LineAddr() {
		t.Fatalf("victim %v, want %v (LRU)", victim, b.LineAddr())
	}
}

func TestConstrainWaysExcludesWay(t *testing.T) {
	c := NewL1()
	c.ConstrainWays = true
	// Fill the same set repeatedly; the excluded way must never be
	// allocated.
	pa := mem.MakeAddr(0, 0)
	excluded := pa.ExcludedWay()
	for i := 0; i < 32; i++ {
		// Same set: stride = sets*lineSize; keep line-in-page constant
		// by striding whole pages (page = 64 lines, sets = 128).
		addr := pa + mem.Addr(i*mem.L1Sets*mem.LineSize)
		way, _, _ := c.Fill(addr)
		if way == excluded {
			t.Fatalf("fill %d allocated excluded way %d", i, way)
		}
	}
}

func TestConstrainWaysOffUsesAllWays(t *testing.T) {
	c := NewL1()
	seen := map[int]bool{}
	pa := mem.MakeAddr(0, 0)
	for i := 0; i < 16; i++ {
		way, _, _ := c.Fill(pa + mem.Addr(i*mem.L1Sets*mem.LineSize))
		seen[way] = true
	}
	if len(seen) != c.Ways() {
		t.Fatalf("unconstrained fill used %d ways, want %d", len(seen), c.Ways())
	}
}

func TestFillEvictHooks(t *testing.T) {
	c := NewL1Custom(mem.NumBanks, 1)
	var fills, evicts []mem.Addr
	c.OnFill = func(p mem.Addr, _, _ int) { fills = append(fills, p) }
	c.OnEvict = func(p mem.Addr, _, _ int) { evicts = append(evicts, p) }
	a := mem.Addr(0x40)
	c.Fill(a)
	c.Fill(a + 256)
	if len(fills) != 2 || len(evicts) != 1 || evicts[0] != a.LineAddr() {
		t.Fatalf("hooks: fills=%v evicts=%v", fills, evicts)
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := NewL1()
	pa := mem.Addr(0x3000)
	c.Fill(pa)
	before := c.Stats()
	if _, hit := c.Probe(pa); !hit {
		t.Fatal("probe missed resident line")
	}
	if c.Stats() != before {
		t.Fatal("probe changed statistics")
	}
}

func TestBankMatchesMemBank(t *testing.T) {
	c := NewL1()
	f := func(raw uint64) bool {
		pa := mem.Addr(raw).Canon()
		return c.Bank(pa) == pa.Bank()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := NewL1()
	c.Fill(0x40)
	c.Fill(0x1040)
	evicted := 0
	c.OnEvict = func(mem.Addr, int, int) { evicted++ }
	c.InvalidateAll()
	if evicted != 2 {
		t.Fatalf("evicted %d, want 2", evicted)
	}
	if _, hit := c.Probe(0x40); hit {
		t.Fatal("line survived InvalidateAll")
	}
}

func TestResidencyProperty(t *testing.T) {
	// After any interleaving of fills, a probe hits iff the line was
	// filled and not displaced; verified against a reference map.
	c := NewL1Custom(mem.NumBanks*2, 2)
	type key struct{ set int }
	ref := map[mem.Addr]bool{}
	addrs := []mem.Addr{0x4000, 0x4200, 0x4400, 0x4600, 0x4040, 0x4240}
	_ = key{}
	for i := 0; i < 200; i++ {
		a := addrs[i%len(addrs)]
		if _, hit := c.Probe(a); !hit {
			_, victim, _ := c.Fill(a)
			if victim != 0 {
				delete(ref, victim)
			}
			ref[a.LineAddr()] = true
		}
		for line := range ref {
			if _, hit := c.Probe(line); !hit {
				t.Fatalf("line %v in reference set but not cached", line)
			}
		}
	}
}

func TestMarkDirty(t *testing.T) {
	c := NewL1Custom(mem.NumBanks, 1)
	pa := mem.Addr(0x80)
	c.Fill(pa)
	c.MarkDirty(pa)
	_, _, wb := c.Fill(pa + 256)
	if !wb {
		t.Fatal("dirty line not written back")
	}
}

func TestL2AccessAndWriteback(t *testing.T) {
	l2 := NewL2Custom(1<<14, 2, 12)
	pa := mem.Addr(0x1000)
	if l2.Access(pa) {
		t.Fatal("cold L2 hit")
	}
	if !l2.Access(pa) {
		t.Fatal("L2 miss after fill")
	}
	l2.Writeback(pa)
	st := l2.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 || st.Writebacks != 1 {
		t.Fatalf("L2 stats %+v", st)
	}
}

func TestBacksideLatencies(t *testing.T) {
	b := NewBackside()
	pa := mem.Addr(0x2000)
	lat1 := b.Miss(pa) // L2 miss -> DRAM
	if lat1 != b.L2.Latency+b.DRAM.Latency {
		t.Fatalf("cold miss latency %d", lat1)
	}
	lat2 := b.Miss(pa) // now L2 hit
	if lat2 != b.L2.Latency {
		t.Fatalf("L2 hit latency %d", lat2)
	}
	if b.DRAM.Accesses() != 1 {
		t.Fatalf("DRAM accesses %d", b.DRAM.Accesses())
	}
}

func TestMissRateHelper(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Fatalf("MissRate = %v", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty MissRate should be 0")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewL1Custom(0, 4) },
		func() { NewL1Custom(130, 4) },                  // not divisible by banks
		func() { NewL1Custom(12, 4) },                   // divisible by banks, not a power of two
		func() { NewL2Custom(3*mem.LineSize*4, 4, 12) }, // 3 sets
		func() { NewL2Custom(0, 4, 12) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
