package cache

import (
	"reflect"
	"slices"
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
)

// scanL2 is the L2 residency oracle: whether pa's line sits in a valid way
// of its set, found by a tag scan over the set.
func scanL2(l *L2, pa mem.Addr) bool {
	base := l.set(pa) * l.ways
	for _, ln := range l.lines[base : base+l.ways] {
		if ln.Valid && ln.PLine == pa.LineAddr() {
			return true
		}
	}
	return false
}

// lruWay is the victim oracle: the way of pa's set with the oldest stamp
// (the lowest way on ties).
func lruWay(l *L2, pa mem.Addr) int {
	base := l.set(pa) * l.ways
	way := 0
	for w := 1; w < l.ways; w++ {
		if l.lru[base+w] < l.lru[base+way] {
			way = w
		}
	}
	return way
}

// mruWay returns the way of pa's set holding the newest stamp, the line
// the last access touched, or -1 when the set is empty.
func mruWay(l *L2, pa mem.Addr) int {
	base := l.set(pa) * l.ways
	way := -1
	for w := 0; w < l.ways; w++ {
		if l.lines[base+w].Valid && (way < 0 || l.lru[base+w] > l.lru[base+way]) {
			way = w
		}
	}
	return way
}

// TestL2TagsMatchScanRandomized drives one L2 through a randomized
// access/writeback stream over a footprint several times the capacity
// (evictions and re-fills throughout) and checks every operation of the
// tag-array lookup against the scan oracle over the lines: the hit/miss
// outcome, the way a miss fills, and the Stats. Every 10,000 operations it
// round-trips the state through CaptureState/RestoreState into a fresh L2
// and continues on the restored copy, whose tags must be rebuilt exactly.
func TestL2TagsMatchScanRandomized(t *testing.T) {
	l := NewL2Custom(1<<14, 4, 12) // small: 16 KB, 64 sets
	var want L2Stats
	drv := rng.New(23)
	for op := 0; op < 100000; op++ {
		pa := mem.Addr(drv.Intn(1 << 18)) // 4x capacity footprint
		hit, victim := scanL2(l, pa), lruWay(l, pa)
		want.Accesses++
		if hit {
			want.Hits++
		} else {
			want.Misses++
		}
		if drv.Intn(8) == 0 {
			want.Writebacks++
			l.Writeback(pa) // its hit/miss shows in the Stats only
		} else if got := l.Access(pa); got != hit {
			t.Fatalf("op %d: Access(%v) = %v, oracle %v", op, pa, got, hit)
		}
		if !hit {
			if ln := l.lines[l.set(pa)*l.ways+victim]; !ln.Valid || ln.PLine != pa.LineAddr() {
				t.Fatalf("op %d: miss on %v did not fill LRU way %d", op, pa, victim)
			}
		}
		if way := mruWay(l, pa); way < 0 || l.lines[l.set(pa)*l.ways+way].PLine != pa.LineAddr() {
			t.Fatalf("op %d: %v is not the most recently used line of its set", op, pa)
		}
		if l.Stats() != want {
			t.Fatalf("op %d: stats %+v, oracle %+v", op, l.Stats(), want)
		}
		if op%10000 == 9999 {
			st := l.CaptureState()
			r := NewL2Custom(1<<14, 4, 12)
			r.RestoreState(st)
			if !reflect.DeepEqual(r.CaptureState(), st) {
				t.Fatalf("op %d: restored L2 captures a different state", op)
			}
			if !slices.Equal(r.tags, l.tags) {
				t.Fatalf("op %d: restored tags differ from the live ones", op)
			}
			l = r
		}
	}
}
