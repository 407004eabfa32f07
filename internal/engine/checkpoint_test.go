package engine

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/trace"
)

// ckTestSchedule is a scaled-down sampling schedule for engine tests:
// three 20k-instruction windows over a 60k-instruction run.
func ckTestSchedule() *config.Sampling {
	return &config.Sampling{Warmup: 200, Detail: 800, Interval: 20000}
}

// TestCheckpointReuseAcrossCoreConfigs pins the point of the warmed
// checkpoint store: two configurations that differ only core-side share a
// memory-side digest, so the second sampled run restores every snapshot the
// first one saved — and the restore must not change its estimate.
func TestCheckpointReuseAcrossCoreConfigs(t *testing.T) {
	const instructions = 60000
	sch := ckTestSchedule()

	cold := config.MALEC()
	cold.Sampling = sch
	warm := config.MALEC()
	warm.Name = "MALEC_rob128"
	warm.ROB = 128 // core-side: same memory-side digest
	warm.Sampling = sch

	if MemSideDigest(cold) != MemSideDigest(warm) {
		t.Fatal("core-side ROB change altered the memory-side digest")
	}
	if KeyFor(cold, "gzip", instructions, 1) == KeyFor(warm, "gzip", instructions, 1) {
		t.Fatal("distinct core-side configs share a result key")
	}

	e := New(Options{Workers: 1})
	first, _ := runPoint(t, e, cold, "gzip", instructions, 1)
	if first.Sampling == nil {
		t.Fatal("sampled path did not engage through the engine")
	}
	if first.Sampling.CheckpointHits != 0 || e.Stats().CheckpointMisses == 0 {
		t.Fatalf("first run should miss every checkpoint, got %d hits", first.Sampling.CheckpointHits)
	}
	second, _ := runPoint(t, e, warm, "gzip", instructions, 1)
	if second.Sampling == nil {
		t.Fatal("second sampled run did not engage")
	}
	if second.Sampling.CheckpointHits < 1 {
		t.Fatalf("second run restored no checkpoints (want >= 1, windows=%d)", second.Sampling.Windows)
	}
	if st := e.Stats(); st.CheckpointHits < 1 {
		t.Fatalf("engine stats report no checkpoint hits: %+v", st)
	}

	// Restoring must be semantically invisible: the checkpointed run of the
	// warm config equals its checkpoint-free reference run in everything
	// but the reuse telemetry.
	ref := cpu.RunBenchmark(warm, "gzip", instructions, 1)
	if second.Cycles != ref.Cycles || second.Energy != ref.Energy ||
		second.Instructions != ref.Instructions || second.Loads != ref.Loads ||
		second.Stores != ref.Stores || second.L1 != ref.L1 || second.TLB != ref.TLB {
		t.Fatalf("checkpoint restore changed the estimate: cycles %d vs %d",
			second.Cycles, ref.Cycles)
	}
	gotCtr, err := json.Marshal(second.Counters)
	if err != nil {
		t.Fatal(err)
	}
	wantCtr, err := json.Marshal(ref.Counters)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCtr, wantCtr) {
		t.Fatalf("checkpoint restore changed the counters:\n%s\nvs\n%s", gotCtr, wantCtr)
	}
}

// TestCheckpointOverBudgetWarmSkipsGeneration pins the over-budget path:
// a sampled point longer than the trace budget runs from a generator, so
// its checkpoints carry the generator state and a warm core-side variant
// restores every window without generating (or allocating) the trace.
func TestCheckpointOverBudgetWarmSkipsGeneration(t *testing.T) {
	const instructions = 2_000_000 // a materialized trace is 64 MB
	sch := &config.Sampling{Warmup: 200, Detail: 800, Interval: 200_000}
	cold := config.MALEC()
	cold.Sampling = sch
	warm := config.MALEC3cycleL1()
	warm.Sampling = sch

	e := New(Options{Workers: 1})
	e.traces = trace.NewCache(1 << 16)
	runPoint(t, e, cold, "gzip", instructions, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _ := runPoint(t, e, warm, "gzip", instructions, 1)
	runtime.ReadMemStats(&after)

	if res.Sampling == nil || res.Sampling.CheckpointHits != res.Sampling.Windows {
		t.Fatalf("warm run sampling %+v, want every window restored", res.Sampling)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("warm over-budget point allocated %d MB, want < 16 MB", alloc>>20)
	}
	if ref := cpu.RunBenchmark(warm, "gzip", instructions, 1); res.Cycles != ref.Cycles || res.Energy != ref.Energy {
		t.Fatalf("restored run differs from its checkpoint-free reference: cycles %d vs %d", res.Cycles, ref.Cycles)
	}
}

// TestCheckpointDiskPersistence checks the two-level store: snapshots
// written by one engine are read back by a fresh engine over the same cache
// directory, with byte traffic visible in the stats.
func TestCheckpointDiskPersistence(t *testing.T) {
	const instructions = 60000
	dir := t.TempDir()
	sch := ckTestSchedule()

	first := config.MALEC()
	first.Sampling = sch
	e1 := New(Options{CacheDir: dir, Workers: 1})
	runPoint(t, e1, first, "gzip", instructions, 1)
	if st := e1.Stats(); st.CheckpointBytesWritten == 0 {
		t.Fatalf("no checkpoint bytes written to disk: %+v", st)
	}

	// A different core-side config on a fresh engine: the result cache
	// misses (different key), the checkpoint store hits from disk.
	second := config.MALEC()
	second.Name = "MALEC_rob128"
	second.ROB = 128
	second.Sampling = sch
	e2 := New(Options{CacheDir: dir, Workers: 1})
	res, src := runPoint(t, e2, second, "gzip", instructions, 1)
	if src != SourceSimulated {
		t.Fatalf("second config served from %s, want simulated", src)
	}
	if res.Sampling == nil || res.Sampling.CheckpointHits < 1 {
		t.Fatalf("fresh engine restored no checkpoints from disk: %+v", res.Sampling)
	}
	if st := e2.Stats(); st.CheckpointBytesRead == 0 {
		t.Fatalf("disk restore reported no bytes read: %+v", st)
	}
}
