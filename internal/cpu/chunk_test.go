package cpu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"malec/internal/config"
	"malec/internal/rng"
	"malec/internal/trace"
)

// fullSource is a source with every optional capability the cpu package
// looks for.
type fullSource interface {
	Source
	sizedSource
	statefulSource
}

// oneAtATime hands out one record per Next call, whatever the caller asks
// for: the record-at-a-time reader the chunked reads must be
// indistinguishable from.
type oneAtATime struct{ fullSource }

func (s oneAtATime) Next(int) []trace.Record { return s.fullSource.Next(1) }

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

// checkpointsEqual compares two stores checkpoint by checkpoint: the
// memory-side state, the stream counts and the source position must match,
// and every position must be the checkpoint's own trace index, so no read
// crossed a capture point. Generator snapshots are compared when both
// sides carry one.
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
		if g.Src == nil || g.Src.Pos != n || g.Instructions != n {
			t.Fatalf("%s: checkpoint %d taken at source position %+v, %d instructions", name, n, g.Src, g.Instructions)
		}
		if g.Loads != w.Loads || g.Stores != w.Stores {
			t.Fatalf("%s: checkpoint %d counts %d/%d, want %d/%d", name, n, g.Loads, g.Stores, w.Loads, w.Stores)
		}
		gs, _ := json.Marshal(g.Sys)
		ws, _ := json.Marshal(w.Sys)
		if !bytes.Equal(gs, ws) {
			t.Fatalf("%s: checkpoint %d memory-side state differs", name, n)
		}
		if g.Src.Gen != nil && w.Src.Gen != nil {
			gg, _ := json.Marshal(g.Src.Gen)
			wg, _ := json.Marshal(w.Src.Gen)
			if !bytes.Equal(gg, wg) {
				t.Fatalf("%s: checkpoint %d generator state differs: the source read past the capture point", name, n)
			}
		}
	}
}

// TestChunkedSourcesMatchRecordAtATime runs exact and sampled points from
// a complete SliceSource and from GenSources with randomized chunk caps,
// and compares each with a record-at-a-time GenSource: the Result JSON
// must be byte-identical, cold (saving checkpoints) and warm (restoring
// them), and the saved checkpoints must match record for record. A
// GenSource run over the SliceSource's checkpoints, which carry no
// generator snapshot, covers the path that streams the gap instead of
// jumping it.
func TestChunkedSourcesMatchRecordAtATime(t *testing.T) {
	drv := rng.New(41)
	for _, g := range chunkTestPoints() {
		name := pointName(g)
		gen := func(chunkCap int) *GenSource {
			s := &GenSource{Gen: trace.NewGenerator(trace.Profiles[g.bench], g.seed), N: chunkTestRecords}
			if chunkCap > 0 {
				s.buf = make([]trace.Record, chunkCap)
			}
			return s
		}
		run := func(src Source, st recordingStore) []byte {
			var ck Checkpoints
			if st != nil {
				ck = st
			}
			return mustJSON(t, RunWithCheckpoints(g.cfg, g.bench, src, ck))
		}
		sampled := g.cfg.Sampling != nil

		wantStore := recordingStore{}
		want := run(oneAtATime{gen(0)}, wantStore)
		if sampled && len(wantStore) != chunkTestRecords/chunkTestSchedule().Interval {
			t.Fatalf("%s: oracle saved %d checkpoints", name, len(wantStore))
		}

		recs := trace.NewGenerator(trace.Profiles[g.bench], g.seed).Generate(chunkTestRecords)
		sliceStore := recordingStore{}
		if got := run(&SliceSource{Records: recs}, sliceStore); !bytes.Equal(got, want) {
			t.Errorf("%s: SliceSource result differs from the record-at-a-time run", name)
		}
		checkpointsEqual(t, name+" SliceSource", sliceStore, wantStore)
		if got := run(&SliceSource{Records: recs}, sliceStore); !bytes.Equal(got, want) {
			t.Errorf("%s: SliceSource warm result differs", name)
		}

		for _, chunkCap := range []int{1 + drv.Intn(999), 1000 + drv.Intn(9000)} {
			genStore := recordingStore{}
			if got := run(gen(chunkCap), genStore); !bytes.Equal(got, want) {
				t.Errorf("%s: GenSource(cap %d) result differs from the record-at-a-time run", name, chunkCap)
			}
			checkpointsEqual(t, fmt.Sprintf("%s GenSource(cap %d)", name, chunkCap), genStore, wantStore)
			if got := run(gen(chunkCap), genStore); !bytes.Equal(got, want) {
				t.Errorf("%s: GenSource(cap %d) warm result differs", name, chunkCap)
			}
			if got := run(gen(chunkCap), sliceStore); !bytes.Equal(got, want) {
				t.Errorf("%s: GenSource(cap %d) over generator-less checkpoints differs", name, chunkCap)
			}
		}
	}
}
