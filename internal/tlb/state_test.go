package tlb

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
)

// translateRandom translates n random pages out of a footprint of span
// (repeats included) and returns the frames.
func translateRandom(pt *PageTable, src *rng.Source, n, span int) []mem.PageID {
	out := make([]mem.PageID, n)
	for i := range out {
		out[i] = pt.Translate(mem.PageID(src.Intn(span)))
	}
	return out
}

// TestPageTableSnapshotReplaysFirstTouches captures a page table, restores
// the snapshot through JSON into a table holding other mappings, and
// requires the two to agree from then on: the same snapshot, and the same
// frame for every further page, old or new. Fresh pages after the restore
// probe past frames the used set must hold, so the rebuilt next-frame
// counter and used set are checked too.
func TestPageTableSnapshotReplaysFirstTouches(t *testing.T) {
	src := rng.New(4)
	pt := NewPageTable()
	translateRandom(pt, src, 20000, 1<<14)
	st := pt.CaptureState()
	if len(st.Pages) != pt.Pages() {
		t.Fatalf("snapshot lists %d pages, table maps %d", len(st.Pages), pt.Pages())
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back PageTableState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	r := NewPageTable()
	translateRandom(r, rng.New(5), 3000, 1<<16)
	if err := r.RestoreState(back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.CaptureState(), st) {
		t.Fatal("restored table captures a different snapshot")
	}
	if r.next != pt.next {
		t.Fatalf("restored next frame %d, want %d", r.next, pt.next)
	}
	a, b := rng.New(6), rng.New(6)
	if got, want := translateRandom(r, a, 30000, 1<<15), translateRandom(pt, b, 30000, 1<<15); !slices.Equal(got, want) {
		t.Fatal("restored table maps pages differently")
	}
}

// TestPageTableRestoreRejectsRepeats checks that a snapshot naming a page
// twice is refused and leaves the table unchanged.
func TestPageTableRestoreRejectsRepeats(t *testing.T) {
	pt := NewPageTable()
	translateRandom(pt, rng.New(7), 500, 1<<12)
	st := pt.CaptureState()
	r, twin := NewPageTable(), NewPageTable()
	translateRandom(r, rng.New(8), 500, 1<<12)
	translateRandom(twin, rng.New(8), 500, 1<<12)
	st.Pages = append(st.Pages, st.Pages[len(st.Pages)/2])
	if err := r.RestoreState(st); err == nil {
		t.Fatal("restore accepted a repeated page")
	}
	if !reflect.DeepEqual(r.CaptureState(), twin.CaptureState()) {
		t.Fatal("a refused restore changed the table")
	}
	if got, want := translateRandom(r, rng.New(9), 2000, 1<<13), translateRandom(twin, rng.New(9), 2000, 1<<13); !slices.Equal(got, want) {
		t.Fatal("a refused restore changed the table's mappings")
	}
}

// TestPageTableRestoreInPlace checks that restores rebuild into storage
// the table already owns: once a restore has sized both the table and its
// spare, the next restores allocate nothing and still map every page as
// the captured table does.
func TestPageTableRestoreInPlace(t *testing.T) {
	pt := NewPageTable()
	translateRandom(pt, rng.New(10), 20000, 1<<14)
	st := pt.CaptureState()
	r := NewPageTable()
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := r.RestoreState(st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a repeated restore allocates %v times, want 0", allocs)
	}
	if !reflect.DeepEqual(r.CaptureState(), st) || r.next != pt.next {
		t.Fatal("a repeated restore captures a different snapshot")
	}
	if got, want := translateRandom(r, rng.New(11), 20000, 1<<15), translateRandom(pt, rng.New(11), 20000, 1<<15); !slices.Equal(got, want) {
		t.Fatal("a repeated restore maps pages differently")
	}
}

// TestPolicyStateLen checks that every policy's StateLen, which snapshot
// checks compare against, is the length of its serialized state.
func TestPolicyStateLen(t *testing.T) {
	for _, name := range []string{"random", "second-chance", "lru", "fifo"} {
		p := NewPolicy(name, 24, rng.New(1))
		if got, want := p.StateLen(), len(p.State()); got != want {
			t.Errorf("%s: StateLen %d, State has %d words", name, got, want)
		}
	}
}
