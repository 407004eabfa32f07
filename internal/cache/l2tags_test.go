package cache

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
)

// lruModel is the L2 reference model: each set is a tag per way plus a
// list of its valid ways in LRU order (least recent first). It shares
// nothing with the L2 but the tag encoding and the set mapping.
type lruModel struct {
	ways  int
	tags  [][]uint32 // per set, per way; 0 for an invalid way
	order [][]int    // per set: valid ways, least recently used first
}

func newLRUModel(sets, ways int) *lruModel {
	m := &lruModel{ways: ways, tags: make([][]uint32, sets), order: make([][]int, sets)}
	for s := range m.tags {
		m.tags[s] = make([]uint32, ways)
	}
	return m
}

// access looks line tag up in set s. A hit moves its way to the back of
// the order. A miss fills the lowest invalid way, or else evicts the
// least recently used way, and reports the evicted tag (0 for none).
func (m *lruModel) access(s int, tag uint32) (hit bool, victim uint32) {
	tags, order := m.tags[s], m.order[s]
	way := slices.Index(tags, tag)
	if way >= 0 {
		i := slices.Index(order, way)
		m.order[s] = append(slices.Delete(order, i, i+1), way)
		return true, 0
	}
	if way = slices.Index(tags, 0); way < 0 {
		way = order[0]
		victim = tags[way]
		order = order[1:]
	}
	tags[way] = tag
	m.order[s] = append(order, way)
	return false, victim
}

// ranks returns the LRU ranks the model implies for set s: 1 for the
// least recent valid way, 0 for an invalid way.
func (m *lruModel) ranks(s int) []uint8 {
	r := make([]uint8, m.ways)
	for i, w := range m.order[s] {
		r[w] = uint8(i + 1)
	}
	return r
}

// TestL2MatchesLRUListModel drives one L2 through a randomized
// access/writeback stream over a footprint several times the capacity
// (evictions and re-fills throughout) and checks every operation against
// the list model: the hit/miss outcome, the whole set's tags after it
// (which way a miss filled and which line it evicted) and the Stats. After
// 100 operations and then every 10,000 it checks the captured ranks
// against the model's order, round-trips the state through JSON into a
// fresh L2 and continues on the restored copy.
func TestL2MatchesLRUListModel(t *testing.T) {
	l := NewL2Custom(1<<14, 4, 12) // small: 16 KB, 64 sets
	model := newLRUModel(l.sets, l.ways)
	var want L2Stats
	drv := rng.New(23)
	evictions := 0
	for op := 0; op < 100000; op++ {
		pa := mem.Addr(drv.Intn(1 << 18)) // 4x capacity footprint
		s := l.set(pa)
		hit, victim := model.access(s, lineTag(pa.LineAddr()))
		if victim != 0 {
			evictions++
		}
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
			t.Fatalf("op %d: Access(%v) = %v, model %v", op, pa, got, hit)
		}
		if got := l.tags[s*l.ways : (s+1)*l.ways]; !slices.Equal(got, model.tags[s]) {
			t.Fatalf("op %d: set %d holds tags %v, model %v (evicted %d)", op, s, got, model.tags[s], victim)
		}
		if l.Stats() != want {
			t.Fatalf("op %d: stats %+v, model %+v", op, l.Stats(), want)
		}
		if op%10000 == 9999 || op == 99 { // op 99: most sets are not full yet
			st := l.CaptureState()
			for s := range model.order {
				if got := st.Ranks[s*l.ways : (s+1)*l.ways]; !slices.Equal(got, model.ranks(s)) {
					t.Fatalf("op %d: set %d ranks %v, model %v", op, s, got, model.ranks(s))
				}
			}
			l = roundTripL2(t, st, NewL2Custom(1<<14, 4, 12))
		}
	}
	if evictions < 10000 {
		t.Fatalf("only %d evictions: the stream does not exercise replacement", evictions)
	}
}

// roundTripL2 restores st, through its JSON encoding, into r and checks
// that r captures the same bytes.
func roundTripL2(t *testing.T, st L2State, r *L2) *L2 {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back L2State
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreState(back); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(r.CaptureState()); !bytes.Equal(got, data) {
		t.Fatal("restored L2 captures a different state")
	}
	return r
}

// TestL2RestoreContinuesIdentically captures an L2 mid-stream, restores
// the snapshot through JSON into an L2 whose clock and stamps are far
// ahead of the original's, and runs both on through 10^5 further random
// accesses and writebacks: every hit/miss outcome must agree, and so must
// the bytes of snapshots taken along the way.
func TestL2RestoreContinuesIdentically(t *testing.T) {
	const ops = 100000
	l := NewL2Custom(1<<15, 8, 12)
	drv := rng.New(5)
	for i := 0; i < 30000; i++ {
		l.Access(mem.Addr(drv.Intn(1 << 19)))
	}
	ahead := NewL2Custom(1<<15, 8, 12)
	ahead.clock = 1 << 50
	other := rng.New(6)
	for i := 0; i < 30000; i++ {
		ahead.Access(mem.Addr(other.Intn(1 << 19)))
	}
	r := roundTripL2(t, l.CaptureState(), ahead)
	for op := 0; op < ops; op++ {
		pa := mem.Addr(drv.Intn(1 << 19))
		if drv.Intn(8) == 0 {
			l.Writeback(pa)
			r.Writeback(pa)
		} else if a, b := l.Access(pa), r.Access(pa); a != b {
			t.Fatalf("op %d: original %v, restored %v on %v", op, a, b, pa)
		}
		if op%20000 == 19999 || op == ops-1 {
			a, _ := json.Marshal(l.CaptureState())
			b, _ := json.Marshal(r.CaptureState())
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d: snapshots differ", op)
			}
		}
	}
}

// TestL2SnapshotSize pins the snapshot's footprint: a full 1 MB L2 holding
// the highest line IDs (the longest tags in JSON) encodes to under 200 KB.
func TestL2SnapshotSize(t *testing.T) {
	l := NewBackside().L2
	lines := len(l.tags)
	top := mem.Addr(1<<mem.AddrBits - mem.LineSize)
	for i := 0; i < lines; i++ {
		l.Access(top - mem.Addr(i*mem.LineSize))
	}
	if slices.Contains(l.tags, 0) {
		t.Fatal("the L2 is not full")
	}
	data, err := json.Marshal(l.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full L2 snapshot: %d bytes of JSON", len(data))
	if len(data) >= 200<<10 {
		t.Fatalf("full L2 snapshot is %d bytes of JSON, want under %d", len(data), 200<<10)
	}
}

// TestL2RestoreRejectsMisfits checks that a snapshot of the wrong
// geometry, or with ranks that do not match its tags, is refused and
// leaves the L2 unchanged.
func TestL2RestoreRejectsMisfits(t *testing.T) {
	l := NewL2Custom(1<<14, 4, 12)
	drv := rng.New(9)
	for i := 0; i < 5000; i++ {
		l.Access(mem.Addr(drv.Intn(1 << 18)))
	}
	good := l.CaptureState()
	before, _ := json.Marshal(good)
	damage := map[string]func(st *L2State){
		"short tags":     func(st *L2State) { st.Tags = st.Tags[:len(st.Tags)-1] },
		"short ranks":    func(st *L2State) { st.Ranks = st.Ranks[:len(st.Ranks)-1] },
		"no arrays":      func(st *L2State) { st.Tags, st.Ranks = nil, nil },
		"rank too high":  func(st *L2State) { st.Ranks[0] = 5 },
		"invalid ranked": func(st *L2State) { st.Tags[0] = 0 },
		"valid unranked": func(st *L2State) { st.Ranks[0] = 0 },
	}
	for name, d := range damage {
		st := good
		st.Tags = slices.Clone(good.Tags)
		st.Ranks = slices.Clone(good.Ranks)
		d(&st)
		if err := l.RestoreState(st); err == nil {
			t.Errorf("%s: restore accepted the snapshot", name)
		}
		if after, _ := json.Marshal(l.CaptureState()); !bytes.Equal(after, before) {
			t.Errorf("%s: a refused restore changed the L2", name)
		}
	}
}
