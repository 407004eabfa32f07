package trace

import (
	"sync"
	"testing"
)

// TestCachePrefixEquivalence pins the property the trace cache is built
// on: cached arenas serve any requested length as a prefix, byte-identical
// to a fresh generator run of that length.
func TestCachePrefixEquivalence(t *testing.T) {
	c := NewCache(1 << 20)
	long := c.Records("gzip", 7, 5000)
	short := c.Records("gzip", 7, 1200)
	if len(long) != 5000 || len(short) != 1200 {
		t.Fatalf("lengths %d/%d, want 5000/1200", len(long), len(short))
	}
	fresh := NewGenerator(Profiles["gzip"], 7).Generate(5000)
	for i := range fresh {
		if long[i] != fresh[i] {
			t.Fatalf("cached record %d differs from fresh generation", i)
		}
	}
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("prefix record %d differs from the long arena", i)
		}
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit (prefix) and 1 miss (generation)", s)
	}
}

// TestCacheExtension verifies a longer request extends the existing arena
// in place — continuing the same generator — rather than regenerating.
func TestCacheExtension(t *testing.T) {
	c := NewCache(1 << 20)
	short := c.Records("mcf", 3, 1000)
	long := c.Records("mcf", 3, 4000)
	fresh := NewGenerator(Profiles["mcf"], 3).Generate(4000)
	for i := range fresh {
		if long[i] != fresh[i] {
			t.Fatalf("extended record %d differs from fresh generation", i)
		}
	}
	// The slice handed out before the extension must remain intact.
	for i := range short {
		if short[i] != fresh[i] {
			t.Fatalf("pre-extension slice corrupted at record %d", i)
		}
	}
	s := c.Stats()
	if s.GeneratedRecords != 4000 {
		t.Fatalf("generated %d records, want 4000 (extension, not regeneration)", s.GeneratedRecords)
	}
	if s.Entries != 1 || s.Records != 4000 {
		t.Fatalf("stats %+v, want one 4000-record entry", s)
	}
}

// TestCacheLRUEviction fills the record budget and checks the least
// recently used arena is dropped, then transparently regenerated on the
// next request.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2500)
	c.Records("gzip", 1, 1000)
	c.Records("mcf", 1, 1000)
	c.Records("gzip", 1, 500) // touch gzip: mcf becomes LRU
	c.Records("swim", 1, 1000)
	s := c.Stats()
	if s.Entries != 2 || s.Records != 2000 {
		t.Fatalf("stats %+v, want 2 entries / 2000 records after eviction", s)
	}
	if s.EvictedRecords != 1000 {
		t.Fatalf("evicted %d records, want 1000 (the mcf arena)", s.EvictedRecords)
	}
	// The evicted workload regenerates identically.
	again := c.Records("mcf", 1, 1000)
	fresh := NewGenerator(Profiles["mcf"], 1).Generate(1000)
	for i := range fresh {
		if again[i] != fresh[i] {
			t.Fatalf("regenerated record %d differs", i)
		}
	}
}

// TestCacheOversizeBypass checks that a request larger than the whole
// budget is left to the caller (nil, counted as a miss) instead of wiping
// the cache.
func TestCacheOversizeBypass(t *testing.T) {
	c := NewCache(1000)
	c.Records("gzip", 1, 800)
	if recs := c.Records("mcf", 1, 5000); recs != nil {
		t.Fatalf("oversize request returned %d records, want nil", len(recs))
	}
	s := c.Stats()
	if s.Entries != 1 || s.Records != 800 {
		t.Fatalf("stats %+v: oversize request disturbed the cache", s)
	}
	if s.Misses != 2 || s.Hits != 0 || s.GeneratedRecords != 800 {
		t.Fatalf("stats %+v, want 2 misses and only the cached arena's 800 records generated", s)
	}
}

// TestCacheSeedsAndBenchmarksAreDistinct guards the content addressing:
// different seeds or benchmarks must never share an arena.
func TestCacheSeedsAndBenchmarksAreDistinct(t *testing.T) {
	c := NewCache(1 << 20)
	a := c.Records("gzip", 1, 2000)
	b := c.Records("gzip", 2, 2000)
	d := c.Records("mcf", 1, 2000)
	same := func(x, y []Record) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if same(a, b) {
		t.Fatal("seeds 1 and 2 produced identical traces")
	}
	if same(a, d) {
		t.Fatal("gzip and mcf produced identical traces")
	}
	if s := c.Stats(); s.Entries != 3 {
		t.Fatalf("stats %+v, want 3 distinct entries", s)
	}
}

// TestCacheConcurrentReaders hammers one key and several others from many
// goroutines; the race detector validates the locking, and every reader
// must observe the canonical prefix.
func TestCacheConcurrentReaders(t *testing.T) {
	c := NewCache(1 << 20)
	want := NewGenerator(Profiles["gzip"], 9).Generate(3000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 500 + (g*97+i*131)%2500
				recs := c.Records("gzip", 9, n)
				if recs[n-1] != want[n-1] {
					t.Errorf("goroutine %d: record %d differs", g, n-1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheUnknownBenchmarkPanics mirrors the generator path's contract.
func TestCacheUnknownBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown benchmark did not panic")
		}
	}()
	NewCache(1000).Records("nosuch", 1, 10)
}
