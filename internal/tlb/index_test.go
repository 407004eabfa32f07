package tlb

import (
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
)

// hookEvent records one OnEvict/OnInsert callback for order comparison.
type hookEvent struct {
	kind string
	idx  int
	e    Entry
}

// recordHooks attaches recording hooks to a TLB and returns the log.
func recordHooks(t *TLB) *[]hookEvent {
	log := &[]hookEvent{}
	t.OnEvict = func(idx int, old Entry) {
		*log = append(*log, hookEvent{"evict", idx, old})
	}
	t.OnInsert = func(idx int, e Entry) {
		*log = append(*log, hookEvent{"insert", idx, e})
	}
	return log
}

// scanV is the oracle for Lookup and Probe: the lowest valid entry holding
// virtual page v, or -1, found by scanning the entry array.
func scanV(t *TLB, v mem.PageID) int {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].VPage == v {
			return i
		}
	}
	return -1
}

// scanP is the ReverseLookup oracle: scanV for physical page p.
func scanP(t *TLB, p mem.PageID) int {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].PPage == p {
			return i
		}
	}
	return -1
}

// scanFree is the Insert fill oracle: the lowest invalid entry, or -1.
func scanFree(t *TLB) int {
	for i := range t.entries {
		if !t.entries[i].Valid {
			return i
		}
	}
	return -1
}

// TestIndexedMatchesScanRandomized drives one TLB through a randomized
// insert/lookup/reverse-lookup/invalidate workload and checks every
// operation against the scan oracles: every return value, the full Stats,
// and the exact order and payload of every OnEvict/OnInsert hook. A twin
// replacement policy receives the Touch/Victim calls a scanning TLB makes,
// so victim choices are checked too. The page space is kept small so
// evictions, reinserts and duplicate physical pages (legal through the
// public API) all occur.
func TestIndexedMatchesScanRandomized(t *testing.T) {
	for _, policy := range []string{"lru", "fifo", "second-chance", "random"} {
		t.Run(policy, func(t *testing.T) {
			const size = 8
			const pageSpace = 24
			const ops = 20000
			tl := New("idx", size, NewPolicy(policy, size, rng.New(7)))
			twin := NewPolicy(policy, size, rng.New(7))
			log := recordHooks(tl)
			var want Stats
			// found checks a lookup's return values against oracle slot i.
			found := func(op int, what string, i int, gi int, ge Entry, gh bool) {
				t.Helper()
				var we Entry
				if i >= 0 {
					we = tl.Entry(i)
				}
				if gi != i || ge != we || gh != (i >= 0) {
					t.Fatalf("op %d: %s = (%d,%+v,%v), oracle slot %d", op, what, gi, ge, gh, i)
				}
			}
			drv := rng.New(99)
			for op := 0; op < ops; op++ {
				v := mem.PageID(drv.Intn(pageSpace))
				p := mem.PageID(drv.Intn(pageSpace)) // duplicates PPages on purpose
				var wantHooks []hookEvent
				mark := len(*log)
				switch drv.Intn(6) {
				case 0, 1:
					i := scanV(tl, v)
					want.Lookups++
					if i >= 0 {
						want.Hits++
						twin.Touch(i)
					} else {
						want.Misses++
					}
					gi, ge, gh := tl.Lookup(v)
					found(op, "Lookup", i, gi, ge, gh)
				case 2:
					i := scanFree(tl)
					want.Inserts++
					if i < 0 {
						i = twin.Victim()
						if old := tl.Entry(i); old.Valid {
							want.Evictions++
							wantHooks = append(wantHooks, hookEvent{"evict", i, old})
						}
					}
					twin.Touch(i)
					wantHooks = append(wantHooks, hookEvent{"insert", i, Entry{VPage: v, PPage: p, Valid: true}})
					if got := tl.Insert(v, p); got != i {
						t.Fatalf("op %d: Insert(%d,%d) chose slot %d, oracle %d", op, v, p, got, i)
					}
				case 3:
					i := scanP(tl, p)
					want.ReverseLookups++
					if i >= 0 {
						want.ReverseHits++
					}
					gi, ge, gh := tl.ReverseLookup(p)
					found(op, "ReverseLookup", i, gi, ge, gh)
				case 4:
					i := scanV(tl, v)
					gi, ge, gh := tl.Probe(v)
					found(op, "Probe", i, gi, ge, gh)
				case 5:
					i := scanV(tl, v)
					if i >= 0 {
						wantHooks = append(wantHooks, hookEvent{"evict", i, tl.Entry(i)})
					}
					tl.Invalidate(v)
					if i >= 0 && tl.Entry(i).Valid {
						t.Fatalf("op %d: Invalidate(%d) left slot %d valid", op, v, i)
					}
				}
				if tl.Stats() != want {
					t.Fatalf("op %d: stats %+v, oracle %+v", op, tl.Stats(), want)
				}
				got := (*log)[mark:]
				if len(got) != len(wantHooks) {
					t.Fatalf("op %d: hooks %+v, oracle %+v", op, got, wantHooks)
				}
				for k := range got {
					if got[k] != wantHooks[k] {
						t.Fatalf("op %d: hooks %+v, oracle %+v", op, got, wantHooks)
					}
				}
			}
		})
	}
}

// TestPageTableFlatStorageMatchesReference cross-checks the open-addressed
// page-table storage against a plain Go map reference for a large, gappy
// virtual page set: identical frames, stability, injectivity.
func TestPageTableFlatStorageMatchesReference(t *testing.T) {
	pt := NewPageTable()
	ref := map[mem.PageID]mem.PageID{}
	frames := map[mem.PageID]mem.PageID{}
	drv := rng.New(11)
	for i := 0; i < 20000; i++ {
		v := mem.PageID(drv.Intn(1 << 16))
		p := pt.Translate(v)
		if prev, ok := ref[v]; ok {
			if prev != p {
				t.Fatalf("translation for %d unstable: %d then %d", v, prev, p)
			}
			continue
		}
		if owner, taken := frames[p]; taken {
			t.Fatalf("frame %d assigned to both %d and %d", p, owner, v)
		}
		ref[v] = p
		frames[p] = v
	}
	if pt.Pages() != len(ref) {
		t.Fatalf("Pages() = %d, want %d", pt.Pages(), len(ref))
	}
}

// BenchmarkTLBLookup measures forward lookups at a paper-sized 64-entry
// TLB on a resident working set (hits, the hot-path common case): the
// indexed Lookup against the scanV oracle's linear scan.
func BenchmarkTLBLookup(b *testing.B) {
	benchResident(b, func(tl *TLB, i int) bool {
		_, _, hit := tl.Lookup(mem.PageID(i))
		return hit
	}, func(tl *TLB, i int) bool { return scanV(tl, mem.PageID(i)) >= 0 })
}

// BenchmarkTLBReverseLookup measures the physical-tag lookups the
// way-table maintenance path performs on every L1 fill/eviction: the
// indexed ReverseLookup against the scanP oracle.
func BenchmarkTLBReverseLookup(b *testing.B) {
	benchResident(b, func(tl *TLB, i int) bool {
		_, _, hit := tl.ReverseLookup(mem.PageID(1000 + i))
		return hit
	}, func(tl *TLB, i int) bool { return scanP(tl, mem.PageID(1000+i)) >= 0 })
}

// benchResident runs the indexed and scan sub-benchmarks of one lookup over
// a full 64-entry TLB holding pages 0..63 (frames 1000..1063); each lookup
// gets the resident entry number i and reports a hit.
func benchResident(b *testing.B, indexed, scan func(tl *TLB, i int) bool) {
	for _, mode := range []struct {
		name   string
		lookup func(tl *TLB, i int) bool
	}{{"indexed", indexed}, {"scan", scan}} {
		b.Run(mode.name, func(b *testing.B) {
			const size = 64
			tl := New("t", size, NewPolicy("random", size, rng.New(1)))
			for v := mem.PageID(0); v < size; v++ {
				tl.Insert(v, 1000+v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !mode.lookup(tl, i%size) {
					b.Fatal("resident page missed")
				}
			}
		})
	}
}
