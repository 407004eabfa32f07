package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"malec/internal/config"
	"malec/internal/mem"
	"malec/internal/rng"
	"malec/internal/trace"
	"malec/internal/waytable"
)

// warmRecords drives a warmed system over one slice of a trace.
func warmRecords(s *System, recs []trace.Record) {
	for _, rec := range recs {
		switch rec.Kind {
		case trace.Load:
			s.WarmLoad(rec.Addr)
		case trace.Store:
			s.WarmStore(rec.Addr)
		}
	}
}

// stateJSON captures a system's memory-side state as canonical JSON bytes.
func stateJSON(t *testing.T, s *System) []byte {
	t.Helper()
	data, err := json.Marshal(s.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointRoundTrip is the randomized checkpoint property test:
// capture a warmed system at a random record index N, restore the snapshot
// into a fresh system (through a JSON round trip, i.e. the disk format),
// continue warming both to a random index M, and require the final states
// to be byte-identical. Covers every snapshot variant: way tables
// (plain and segmented), the WDU, the bypass stream detector, and the
// baseline with no way determination.
func TestCheckpointRoundTrip(t *testing.T) {
	configs := []config.Config{
		config.Base1ldst(),
		config.MALEC(),
		config.MALECSegmentedWT(8, 0.5),
		config.MALECWithWDU(16),
		config.MALECBypass(),
	}
	benches := []string{"gzip", "ptrchase", "tlbthrash"}
	rnd := rand.New(rand.NewSource(20130318)) // deterministic trials

	for _, cfg := range configs {
		for _, bench := range benches {
			for trial := 0; trial < 3; trial++ {
				n := 1000 + rnd.Intn(20000)
				m := n + 1000 + rnd.Intn(20000)
				seed := uint64(1 + rnd.Intn(8))
				name := fmt.Sprintf("%s/%s/n=%d/m=%d/seed=%d", cfg.Name, bench, n, m, seed)

				recs := trace.NewGenerator(trace.Profiles[bench], seed).Generate(m)

				ref := NewSystem(cfg)
				ref.SetWarming(true)
				warmRecords(ref, recs[:n])

				ckJSON := stateJSON(t, ref)
				var ck SystemState
				if err := json.Unmarshal(ckJSON, &ck); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				restored := NewSystem(cfg)
				restored.SetWarming(true)
				if err := restored.RestoreState(&ck); err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				// A restore must reproduce the captured state exactly before
				// any further access.
				if got := stateJSON(t, restored); !bytes.Equal(got, ckJSON) {
					t.Fatalf("%s: restored state differs from snapshot at n", name)
				}

				// Uninterrupted vs restore-then-continue must stay
				// bit-identical through arbitrary further warming.
				warmRecords(ref, recs[n:])
				warmRecords(restored, recs[n:])
				if !bytes.Equal(stateJSON(t, ref), stateJSON(t, restored)) {
					t.Errorf("%s: state diverged after continuing to m", name)
				}
			}
		}
	}
}

// TestGeneratorStateRoundTrip is the source-side half of the checkpoint
// property: capturing a generator at a random index and restoring the
// snapshot into a fresh generator of the same (profile, seed) must
// reproduce the identical remaining record sequence.
func TestGeneratorStateRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for _, bench := range []string{"gzip", "mcf", "ptrchase", "tlbthrash"} {
		for trial := 0; trial < 3; trial++ {
			n := 1 + rnd.Intn(30000)
			m := 1 + rnd.Intn(10000)
			seed := uint64(1 + rnd.Intn(8))
			prof := trace.Profiles[bench]

			g := trace.NewGenerator(prof, seed)
			g.Generate(n)
			st := g.CaptureState()
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var back trace.GeneratorState
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}

			fresh := trace.NewGenerator(prof, seed)
			if !fresh.RestoreState(&back) {
				t.Fatalf("%s/n=%d/seed=%d: restore rejected a matching snapshot", bench, n, seed)
			}
			want := g.Generate(m)
			got := fresh.Generate(m)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/n=%d/seed=%d: record %d diverged: %+v vs %+v",
						bench, n, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// driveRandom offers iface a seeded random request stream (a hot pool of
// pages plus far pages that miss) for the given number of cycles,
// committing stores in order, and returns a log of every accepted request
// and every completion, by cycle. With finish it then commits the
// remaining stores and drains the interface.
func driveRandom(t *testing.T, iface Interface, seed uint64, cycles int, finish bool) []uint64 {
	t.Helper()
	src := rng.New(seed)
	var log, stores []uint64
	seq := uint64(0)
	for cycle := 0; cycle < cycles; cycle++ {
		for _, c := range iface.Tick() {
			log = append(log, uint64(cycle), c.Seq)
		}
		for len(stores) > 0 && src.Bool(0.4) {
			iface.CommitStore(stores[0])
			stores = stores[1:]
		}
		for i := src.Intn(5); i > 0; i-- {
			kind := mem.Load
			if src.Bool(0.3) {
				kind = mem.Store
			}
			page := mem.PageID(src.Intn(6))
			if src.Bool(0.1) {
				page = mem.PageID(100 + src.Intn(1000))
			}
			va := mem.MakeAddr(page, uint32(src.Intn(mem.PageSize))&^7)
			if !iface.TryIssue(Request{Seq: seq + 1, Kind: kind, VA: va, Size: 8}) {
				continue
			}
			seq++
			log = append(log, uint64(cycle), seq)
			if kind == mem.Store {
				stores = append(stores, seq)
			}
		}
	}
	if !finish {
		return log
	}
	for _, s := range stores {
		iface.CommitStore(s)
	}
	for _, c := range drain(t, iface) {
		log = append(log, c.Seq)
	}
	return log
}

// TestRestoreMatchesFreshInterface checks Interface.Restore on an
// interface left mid-flight — loads pending in the calendar and the
// interface's own queues, stores in the store and merge buffers, MBEs
// waiting — against a new interface restored from the same snapshot: the
// same request stream must then give the same completions, counters,
// energy and memory-side state on both.
func TestRestoreMatchesFreshInterface(t *testing.T) {
	recs := trace.NewGenerator(trace.Profiles["gzip"], 3).Generate(5000)
	for _, cfg := range []config.Config{
		config.Base1ldst(),
		config.Base2ld1st(),
		config.MALEC(),
		config.MALECWithWDU(8),
		config.MALECBypass(),
	} {
		warm := NewSystem(cfg)
		warm.SetWarming(true)
		warmRecords(warm, recs)
		st := warm.CaptureState()

		used := New(cfg)
		if err := used.Restore(st); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		driveRandom(t, used, 1, 400, false)
		if used.Idle() || used.Pending() == 0 {
			t.Fatalf("%s: the first stream left nothing in flight", cfg.Name)
		}
		fresh := New(cfg)
		if err := errors.Join(used.Restore(st), fresh.Restore(st)); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if got, want := driveRandom(t, used, 2, 2000, true), driveRandom(t, fresh, 2, 2000, true); !slices.Equal(got, want) {
			t.Fatalf("%s: the restored interface issued or completed differently", cfg.Name)
		}
		if used.System().Cycle() != fresh.System().Cycle() {
			t.Fatalf("%s: cycle %d, fresh %d", cfg.Name, used.System().Cycle(), fresh.System().Cycle())
		}
		cycles := uint64(fresh.System().Cycle())
		for what, pair := range map[string][2]any{
			"counters": {used.Counters(), fresh.Counters()},
			"energy":   {used.Meter().Finish(cycles), fresh.Meter().Finish(cycles)},
			"state":    {used.System().CaptureState(), fresh.System().CaptureState()},
		} {
			a, _ := json.Marshal(pair[0])
			b, _ := json.Marshal(pair[1])
			if !bytes.Equal(a, b) {
				t.Errorf("%s: %s not equal to a fresh interface's", cfg.Name, what)
			}
		}
	}
}

// TestRestoreStateRejectsMisfits cuts one array of a snapshot at a time
// (every part a restore copies), repeats a page-table page, or drops an
// optional part, and restores the result into a system warmed on other
// records: the restore must fail and leave the system byte-identical.
func TestRestoreStateRejectsMisfits(t *testing.T) {
	type damage func(st *SystemState)
	cut := func(n int) int { return n / 2 }
	common := map[string]damage{
		"L1 lines":   func(st *SystemState) { st.L1.Lines = st.L1.Lines[:cut(len(st.L1.Lines))] },
		"L1 LRU":     func(st *SystemState) { st.L1.LRU = st.L1.LRU[:cut(len(st.L1.LRU))] },
		"L2 tags":    func(st *SystemState) { st.Back.L2.Tags = st.Back.L2.Tags[:cut(len(st.Back.L2.Tags))] },
		"L2 ranks":   func(st *SystemState) { st.Back.L2.Ranks = nil },
		"uTLB":       func(st *SystemState) { st.UTLB.Entries = st.UTLB.Entries[:cut(len(st.UTLB.Entries))] },
		"TLB":        func(st *SystemState) { st.TLB.Entries = st.TLB.Entries[:cut(len(st.TLB.Entries))] },
		"TLB policy": func(st *SystemState) { st.UTLB.Policy = st.UTLB.Policy[:1] },
		"page table": func(st *SystemState) { st.PT.Pages = append(st.PT.Pages, st.PT.Pages[0]) },
	}
	cases := []struct {
		cfg   config.Config
		extra map[string]damage
	}{
		{config.Base1ldst(), map[string]damage{
			"stray way tables": func(st *SystemState) { st.PageD = &waytable.PageSystemState{} },
		}},
		{config.MALEC(), map[string]damage{
			"no way tables": func(st *SystemState) { st.PageD = nil },
			"WT codes": func(st *SystemState) {
				wt := *st.PageD.WT.Table
				wt.Codes = wt.Codes[:cut(len(wt.Codes))]
				st.PageD = &waytable.PageSystemState{UWT: st.PageD.UWT, WT: waytable.StoreState{Table: &wt}}
			},
			"uWT kind": func(st *SystemState) {
				st.PageD = &waytable.PageSystemState{UWT: waytable.StoreState{Segmented: &waytable.SegmentedState{}}, WT: st.PageD.WT}
			},
		}},
		{config.MALECSegmentedWT(8, 0.5), map[string]damage{
			"segmented slots": func(st *SystemState) {
				wt := *st.PageD.WT.Segmented
				wt.Slots = wt.Slots[:cut(len(wt.Slots))]
				st.PageD = &waytable.PageSystemState{UWT: st.PageD.UWT, WT: waytable.StoreState{Segmented: &wt}}
			},
		}},
		{config.MALECWithWDU(16), map[string]damage{
			"WDU stamps": func(st *SystemState) {
				w := *st.WDU
				w.Stamps = w.Stamps[:cut(len(w.Stamps))]
				st.WDU = &w
			},
		}},
		{config.MALECBypass(), map[string]damage{
			"detector regions": func(st *SystemState) {
				d := *st.Det
				d.Regions = d.Regions[:cut(len(d.Regions))]
				st.Det = &d
			},
			"no detector": func(st *SystemState) { st.Det = nil },
		}},
	}
	for _, c := range cases {
		src := NewSystem(c.cfg)
		src.SetWarming(true)
		warmRecords(src, trace.NewGenerator(trace.Profiles["ptrchase"], 1).Generate(20000))
		good := src.CaptureState()
		damages := maps.Clone(common)
		maps.Copy(damages, c.extra)
		for name, d := range damages {
			dst := NewSystem(c.cfg)
			dst.SetWarming(true)
			warmRecords(dst, trace.NewGenerator(trace.Profiles["gzip"], 2).Generate(20000))
			before := stateJSON(t, dst)
			st := *good
			d(&st)
			if err := dst.RestoreState(&st); err == nil {
				t.Errorf("%s %s: restore accepted the damaged snapshot", c.cfg.Name, name)
			}
			if !bytes.Equal(stateJSON(t, dst), before) {
				t.Errorf("%s %s: a refused restore changed the system", c.cfg.Name, name)
			}
		}
	}
}
