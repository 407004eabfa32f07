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
	long, _ := c.Records("gzip", 7, 5000)
	short, _ := c.Records("gzip", 7, 1200)
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
	short, _ := c.Records("mcf", 3, 1000)
	long, _ := c.Records("mcf", 3, 4000)
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
	again, _ := c.Records("mcf", 1, 1000)
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
	if recs, release := c.Records("mcf", 1, 5000); recs != nil || release != nil {
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
	a, _ := c.Records("gzip", 1, 2000)
	b, _ := c.Records("gzip", 2, 2000)
	d, _ := c.Records("mcf", 1, 2000)
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
				recs, release := c.Records("gzip", 9, n)
				ok := recs[n-1] == want[n-1]
				release()
				if !ok {
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

// TestCacheDropRecyclesArena drops a workload while a request still reads
// its arena: the entry leaves the cache at once, but its storage becomes
// the spare only when the reader releases it, and the next generation of
// a fitting length then fills that storage instead of allocating.
func TestCacheDropRecyclesArena(t *testing.T) {
	c := NewCache(1 << 20)
	recs, release := c.Records("gzip", 1, 3000)
	c.Drop("gzip", 1)
	if s := c.Stats(); s.Entries != 0 || s.Records != 0 {
		t.Fatalf("stats %+v after Drop, want an empty cache", s)
	}
	if c.spare != nil {
		t.Fatal("dropped arena recycled while a reader holds it")
	}
	release()
	if &c.spare[:1][0] != &recs[0] {
		t.Fatal("released arena did not become the spare")
	}
	// Too short for a longer workload: the spare waits for one it fits.
	long, releaseLong := c.Records("swim", 1, 5000)
	if &long[0] == &recs[0] || c.spare == nil {
		t.Fatal("a 5000-record generation took the 3000-record spare")
	}
	releaseLong()
	other, releaseOther := c.Records("mcf", 1, 3000)
	defer releaseOther()
	if &other[0] != &recs[0] || c.spare != nil {
		t.Fatal("a fitting generation did not reuse the spare")
	}
	for i, r := range NewGenerator(Profiles["mcf"], 1).Generate(3000) {
		if other[i] != r {
			t.Fatalf("record %d generated into the spare differs from a fresh generation", i)
		}
	}
	// The dropped workload regenerates identically.
	again, releaseAgain := c.Records("gzip", 1, 3000)
	defer releaseAgain()
	for i, r := range NewGenerator(Profiles["gzip"], 1).Generate(3000) {
		if again[i] != r {
			t.Fatalf("regenerated record %d differs", i)
		}
	}
	if s := c.Stats(); s.Misses != 4 || s.Hits != 0 || s.Entries != 3 {
		t.Fatalf("stats %+v, want 4 misses over 3 cached entries", s)
	}
}

// TestCacheSpareStaysInBudget checks that the spare never holds memory the
// record budget does not see: a shorter generation does not take a longer
// spare (the budget would count the arena by its length, not by the array
// it pins), the spare is discarded before any cached arena is evicted, and
// an evicted arena is not recycled.
func TestCacheSpareStaysInBudget(t *testing.T) {
	c := NewCache(10000)
	held := func() (n int) {
		for _, e := range c.entries {
			n += cap(e.recs)
		}
		return n
	}
	long, release := c.Records("gzip", 1, 5000)
	release()
	c.Drop("gzip", 1)
	if cap(c.spare) != 5000 {
		t.Fatalf("spare holds %d records after the drop, want 5000", cap(c.spare))
	}
	short, release := c.Records("mcf", 1, 1000)
	release()
	if &short[0] == &long[0] || cap(c.spare) != 5000 {
		t.Fatal("a 1000-record generation took the 5000-record spare")
	}
	if s := c.Stats(); s.Records != held() {
		t.Fatalf("cache counts %d records but its arenas hold %d", s.Records, held())
	}
	// 1000 + 4500 cached and 5000 spare exceed the budget: the spare goes
	// first.
	_, release = c.Records("swim", 1, 4500)
	release()
	if s := c.Stats(); c.spare != nil || s.Entries != 2 || s.EvictedRecords != 0 {
		t.Fatalf("stats %+v, spare %d: want the spare discarded and both arenas kept", s, cap(c.spare))
	}
	// 5500 + 4600 evicts mcf, whose arena no reader holds; it is left to
	// the garbage collector, not kept as a spare outside the budget.
	_, release = c.Records("art", 1, 4600)
	release()
	if s := c.Stats(); c.spare != nil || s.EvictedRecords != 1000 || s.Records != held() {
		t.Fatalf("stats %+v, spare %d, held %d: want mcf evicted and not recycled", s, cap(c.spare), held())
	}
}

// TestCacheRecycleWhileReading drops a workload over and over while a
// request for it is being served, then generates another workload of the
// same length, which takes the spare if the dropped arena was recycled.
// The reader, which holds its arena throughout, must still see a fresh
// generation's records: an arena is recycled only after every request
// that looked it up has released it, including one that a Drop reaches
// before serving has returned.
func TestCacheRecycleWhileReading(t *testing.T) {
	const n, rounds = 1000, 300
	want := NewGenerator(Profiles["gzip"], 1).Generate(n)
	for r := 0; r < rounds; r++ {
		c := NewCache(1 << 20)
		served, reused := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			recs, release := c.Records("gzip", 1, n)
			defer release()
			close(served)
			<-reused
			for i := range want {
				if recs[i] != want[i] {
					t.Errorf("round %d: held record %d was overwritten by a recycled-arena generation", r, i)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for dropping := true; dropping; {
				select {
				case <-served:
					dropping = false
				default:
				}
				c.Drop("gzip", 1)
			}
			_, release := c.Records("mcf", 1, n)
			release()
			close(reused)
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}
