package cpu

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"malec/internal/config"
	"malec/internal/rng"
	"malec/internal/trace"
)

// genOracle reads a generator one record per Next call, whatever the
// caller asks for, on the caller's goroutine: the record-at-a-time reader
// the chunked and generate-ahead reads must be indistinguishable from.
type genOracle struct {
	gen  *trace.Generator
	n    int
	pos  int
	last [1]trace.Record
}

func newGenOracle(g gridPoint, n int) *genOracle {
	return &genOracle{gen: trace.NewGenerator(trace.Profiles[g.bench], g.seed), n: n}
}

func (s *genOracle) Next(int) []trace.Record {
	if s.pos == s.n {
		return nil
	}
	s.gen.Fill(&s.last[0])
	s.pos++
	return s.last[:]
}

func (s *genOracle) Remaining() int { return s.n - s.pos }

// recordingStore is a map checkpoint store that keeps every save.
type recordingStore map[uint64]*Checkpoint

func (s recordingStore) Load(n uint64) (*Checkpoint, bool) { ck, ok := s[n]; return ck, ok }
func (s recordingStore) Save(n uint64, ck *Checkpoint)     { s[n] = ck }

// chunkTestSchedule keeps the sampled equivalence runs short: five windows
// over chunkTestRecords, with a three-record tail.
func chunkTestSchedule() *config.Sampling {
	return &config.Sampling{Warmup: 100, Detail: 400, Interval: 8000}
}

const chunkTestRecords = 40_003

// chunkTestPoints is the grid of the chunked-source equivalence tests: an
// exact and a sampled point for a paper workload on a baseline and for the
// miss-heavy stress workload on MALEC.
func chunkTestPoints() []gridPoint {
	var pts []gridPoint
	for _, g := range []gridPoint{{config.Base1ldst(), "gzip", 1}, {config.MALEC(), "ptrchase", 1}} {
		pts = append(pts, g)
		g.cfg.Sampling = chunkTestSchedule()
		pts = append(pts, g)
	}
	return pts
}

// pointName labels a chunk-test point.
func pointName(g gridPoint) string {
	mode := "exact"
	if g.cfg.Sampling != nil {
		mode = "sampled"
	}
	return fmt.Sprintf("%s/%s/%s", g.cfg.Name, g.bench, mode)
}

// checkpointsEqual compares two stores checkpoint by checkpoint: each
// must be taken at its own record count and equal want's as a whole, so no
// read crossed a capture point.
func checkpointsEqual(t *testing.T, name string, got, want recordingStore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d checkpoints, want %d", name, len(got), len(want))
	}
	for n, w := range want {
		g, ok := got[n]
		if !ok {
			t.Fatalf("%s: no checkpoint at %d", name, n)
		}
		if g.Instructions != n {
			t.Fatalf("%s: checkpoint %d taken after %d instructions", name, n, g.Instructions)
		}
		if gj, wj := mustJSONValue(t, g), mustJSONValue(t, w); !bytes.Equal(gj, wj) {
			t.Fatalf("%s: checkpoint %d differs from the record-at-a-time checkpoint: the source read past the capture point", name, n)
		}
	}
}

// runCheckpointed is RunWithCheckpointsContext with a store and no
// cancellation.
func runCheckpointed(t *testing.T, cfg config.Config, bench string, src Source, ck Checkpoints) Result {
	t.Helper()
	res, err := RunWithCheckpointsContext(context.Background(), cfg, bench, src, ck)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustJSONValue marshals any value for byte comparison.
func mustJSONValue(t *testing.T, v any) []byte {
	t.Helper()
	j, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestChunkedSourcesMatchRecordAtATime runs exact and sampled points
// from a complete SliceSource and from generate-ahead GenSources with
// randomized ring chunk sizes, and compares each with a record-at-a-time
// generator: the Result JSON must be byte-identical, cold (saving
// checkpoints) and warm (restoring every one), and the saved checkpoints
// must match record for record.
func TestChunkedSourcesMatchRecordAtATime(t *testing.T) {
	drv := rng.New(41)
	for _, g := range chunkTestPoints() {
		name := pointName(g)
		sampled := g.cfg.Sampling != nil
		windows := chunkTestRecords / chunkTestSchedule().Interval
		run := func(label string, src Source, st recordingStore, warm bool) []byte {
			res := runCheckpointed(t, g.cfg, g.bench, src, st)
			if sampled {
				wantHits := 0
				if warm {
					wantHits = windows
				}
				if res.Sampling.CheckpointHits != wantHits {
					t.Errorf("%s: %d checkpoints restored, want %d", label, res.Sampling.CheckpointHits, wantHits)
				}
			}
			return mustJSON(t, res)
		}

		wantStore := recordingStore{}
		want := run(name+" oracle", newGenOracle(g, chunkTestRecords), wantStore, false)
		if sampled && len(wantStore) != windows {
			t.Fatalf("%s: oracle saved %d checkpoints", name, len(wantStore))
		}

		recs := trace.NewGenerator(trace.Profiles[g.bench], g.seed).Generate(chunkTestRecords)
		label := name + " SliceSource"
		sliceStore := recordingStore{}
		if got := run(label, &SliceSource{Records: recs}, sliceStore, false); !bytes.Equal(got, want) {
			t.Errorf("%s: result differs from the record-at-a-time run", label)
		}
		checkpointsEqual(t, label, sliceStore, wantStore)
		if got := run(label, &SliceSource{Records: recs}, sliceStore, true); !bytes.Equal(got, want) {
			t.Errorf("%s: warm result differs", label)
		}

		for _, chunk := range []int{1 + drv.Intn(999), 1000 + drv.Intn(9000)} {
			label := fmt.Sprintf("%s GenSource(chunk %d)", name, chunk)
			gen := func() *GenSource {
				return &GenSource{Gen: trace.NewGenerator(trace.Profiles[g.bench], g.seed), N: chunkTestRecords, chunk: chunk}
			}
			genStore := recordingStore{}
			if got := run(label, gen(), genStore, false); !bytes.Equal(got, want) {
				t.Errorf("%s: cold result differs from the record-at-a-time run", label)
			}
			checkpointsEqual(t, label, genStore, wantStore)
			if got := run(label, gen(), genStore, true); !bytes.Equal(got, want) {
				t.Errorf("%s: warm result differs", label)
			}
		}
	}
}

// TestDamagedCheckpointPositionsRewarm shifts the record count a
// checkpoint was taken at by ±7 records, over a generator and over an
// arena. A run over the damaged checkpoints must treat them as misses,
// warm, and overwrite them: its Result JSON must equal an uncheckpointed
// run's, and the store must end up holding checkpoints taken at their own
// counts.
func TestDamagedCheckpointPositionsRewarm(t *testing.T) {
	g := chunkTestPoints()[1]
	recs := trace.NewGenerator(trace.Profiles[g.bench], g.seed).Generate(chunkTestRecords)
	sources := map[string]func() Source{
		"GenSource": func() Source {
			return &GenSource{Gen: trace.NewGenerator(trace.Profiles[g.bench], g.seed), N: chunkTestRecords}
		},
		"SliceSource": func() Source { return &SliceSource{Records: recs} },
	}
	want := mustJSON(t, Run(g.cfg, g.bench, sources["GenSource"]()))
	for kind, source := range sources {
		good := recordingStore{}
		runCheckpointed(t, g.cfg, g.bench, source(), good)
		for _, d := range []int64{-7, 7} {
			name := fmt.Sprintf("%s Instructions%+d", kind, d)
			store := recordingStore{}
			for n, ck := range good {
				c := *ck
				c.Instructions += uint64(d)
				store[n] = &c
			}
			got, err := runRecovered(func() Result { return runCheckpointed(t, g.cfg, g.bench, source(), store) })
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if res := mustJSON(t, got); !bytes.Equal(res, want) {
				t.Errorf("%s: restoring damaged checkpoints changed the result (cycles %d)", name, got.Cycles)
			}
			if got.Sampling.CheckpointHits != 0 {
				t.Errorf("%s: %d damaged checkpoints restored", name, got.Sampling.CheckpointHits)
			}
			checkpointsEqual(t, name+" overwritten", store, good)
		}
	}
}

// runRecovered runs f, turning a panic into an error.
func runRecovered(f func() Result) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	return f(), nil
}

// TestMisfitCheckpointsRewarm offers a run checkpoints that decode but do
// not fit its system: an L2 tag array and a TLB entry list cut short, and
// a checkpoint written in the format before the L2 kept tags and ranks
// (lines and LRU stamps, page-table mappings), which decodes with no tags
// at all. The run must treat each as a miss, warm, and overwrite it: its
// Result JSON must equal an uncheckpointed run's.
func TestMisfitCheckpointsRewarm(t *testing.T) {
	g := chunkTestPoints()[1]
	source := func() Source {
		return &GenSource{Gen: trace.NewGenerator(trace.Profiles[g.bench], g.seed), N: chunkTestRecords}
	}
	want := mustJSON(t, Run(g.cfg, g.bench, source()))
	good := recordingStore{}
	runCheckpointed(t, g.cfg, g.bench, source(), good)
	damages := map[string]func(t *testing.T, ck *Checkpoint) *Checkpoint{
		"L2 tags cut short": func(t *testing.T, ck *Checkpoint) *Checkpoint {
			sys := *ck.Sys
			sys.Back.L2.Tags = sys.Back.L2.Tags[:len(sys.Back.L2.Tags)/2]
			c := *ck
			c.Sys = &sys
			return &c
		},
		"TLB entries cut short": func(t *testing.T, ck *Checkpoint) *Checkpoint {
			sys := *ck.Sys
			sys.TLB.Entries = sys.TLB.Entries[:len(sys.TLB.Entries)/2]
			c := *ck
			c.Sys = &sys
			return &c
		},
		"old format": oldFormatCheckpoint,
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			store := recordingStore{}
			for n, ck := range good {
				store[n] = damage(t, ck)
			}
			got, err := runRecovered(func() Result { return runCheckpointed(t, g.cfg, g.bench, source(), store) })
			if err != nil {
				t.Fatal(err)
			}
			if res := mustJSON(t, got); !bytes.Equal(res, want) {
				t.Errorf("restoring misfit checkpoints changed the result (cycles %d)", got.Cycles)
			}
			if got.Sampling.CheckpointHits != 0 {
				t.Errorf("%d misfit checkpoints restored", got.Sampling.CheckpointHits)
			}
			checkpointsEqual(t, "overwritten", store, good)
		})
	}
}

// oldFormatCheckpoint rewrites ck's JSON the way checkpoints were written
// before the L2 kept only tags and LRU ranks: the L2 as Lines and LRU
// stamps, the page table as (V, P) mappings with a next-frame counter.
// It decodes into the current types with the L2 tags and the page list
// empty.
func oldFormatCheckpoint(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(mustJSONValue(t, ck), &doc); err != nil {
		t.Fatal(err)
	}
	sys := doc["Sys"].(map[string]any)
	l2 := sys["Back"].(map[string]any)["L2"].(map[string]any)
	st := ck.Sys.Back.L2
	type line struct {
		Valid, Dirty bool
		PLine        uint64
	}
	lines := make([]line, len(st.Tags))
	for i, tag := range st.Tags {
		if tag != 0 {
			lines[i] = line{Valid: true, PLine: uint64(tag-1) << 6}
		}
	}
	lru := make([]uint64, len(st.Ranks))
	for i, r := range st.Ranks {
		lru[i] = uint64(r)
	}
	l2["Lines"], l2["LRU"] = lines, lru
	delete(l2, "Tags")
	delete(l2, "Ranks")
	type mapping struct{ V, P uint32 }
	var mappings []mapping
	for i, v := range ck.Sys.PT.Pages {
		mappings = append(mappings, mapping{V: uint32(v), P: uint32(i)})
	}
	sys["PT"] = map[string]any{"Mappings": mappings, "Next": len(mappings)}
	var old Checkpoint
	if err := json.Unmarshal(mustJSONValue(t, doc), &old); err != nil {
		t.Fatalf("an old-format checkpoint no longer decodes: %v", err)
	}
	if len(old.Sys.Back.L2.Tags) != 0 || len(old.Sys.PT.Pages) != 0 {
		t.Fatal("an old-format checkpoint decoded with L2 tags or pages")
	}
	return &old
}
