package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/faultinject"
)

// durableSpec is the small grid shared by the durable-campaign tests:
// 2 configs x 3 benchmarks x 2 seeds = 12 points.
func durableSpec() CampaignSpec {
	return CampaignSpec{
		Configs:      []config.Config{config.MALEC(), config.MALECNoMerge()},
		Benchmarks:   []string{"gzip", "mcf", "art"},
		Instructions: 1000,
		Seeds:        []uint64{1, 2},
		Workers:      2,
	}
}

// waitCampaign polls a run until it reaches a terminal state.
func waitCampaign(t *testing.T, run *CampaignRun) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := run.Status(); st.State != CampaignRunning {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish: %+v", run.ID(), run.Status())
	return CampaignStatus{}
}

// exportBytes materializes a campaign's JSON and CSV artifacts.
func exportBytes(t *testing.T, run *CampaignRun) (jsonOut, csvOut []byte) {
	t.Helper()
	camp, err := run.Export(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	jsonOut, err = camp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	csvOut, err = camp.CSV()
	if err != nil {
		t.Fatal(err)
	}
	return jsonOut, csvOut
}

// TestCrashResumeDeterminism is the durability acceptance test: a campaign
// killed at random progress and resumed by a fresh process must export the
// exact bytes an uninterrupted run exports, without re-simulating any
// point its journal recorded.
func TestCrashResumeDeterminism(t *testing.T) {
	spec := durableSpec()
	total := len(spec.Configs) * len(spec.Benchmarks) * len(spec.Seeds)

	// Reference: an uninterrupted run on its own store.
	refDir := t.TempDir()
	refEng := New(Options{Workers: 2, CacheDir: refDir, Simulate: plain(stubResult)})
	refMgr := NewCampaignManager(refEng, CampaignManagerOptions{Dir: filepath.Join(refDir, "campaigns")})
	refRun, err := refMgr.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitCampaign(t, refRun); st.State != CampaignDone || st.Completed != total {
		t.Fatalf("reference run: %+v", st)
	}
	wantJSON, wantCSV := exportBytes(t, refRun)

	// Victim process: same spec on a second store, killed mid-campaign.
	// Cancellation without a completion marker is exactly what kill -9
	// leaves behind (modulo the torn tail, covered separately): a
	// journal of completed points and no done marker. A gate throttles
	// the simulator so the campaign is reliably mid-flight when cancelled.
	// Capacity far above every token ever pushed, so releasing the
	// stragglers below can never block on a full buffer.
	crashDir := t.TempDir()
	gate := make(chan struct{}, 4*total)
	for i := 0; i < 5; i++ {
		gate <- struct{}{} // let roughly the first 5 points through
	}
	victimEng := New(Options{Workers: 2, CacheDir: crashDir,
		Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
			<-gate
			return stubResult(cfg, b, n, s)
		})})
	victimMgr := NewCampaignManager(victimEng, CampaignManagerOptions{Dir: filepath.Join(crashDir, "campaigns")})
	victimRun, err := victimMgr.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	for victimRun.Status().Completed < 3 {
		time.Sleep(time.Millisecond)
	}
	victimMgr.Cancel(victimRun.ID())
	for i := 0; i < total; i++ {
		gate <- struct{}{} // release the in-flight stragglers
	}
	st := waitCampaign(t, victimRun)
	if st.State != CampaignCancelled {
		t.Fatalf("victim run state %s, want cancelled", st.State)
	}
	killedAt := victimRun.Status().Completed
	if killedAt == 0 || killedAt == total {
		t.Fatalf("campaign killed at %d/%d points; the test needs a mid-flight kill", killedAt, total)
	}
	if _, err := os.Stat(filepath.Join(crashDir, "campaigns", victimRun.ID(), doneName)); !os.IsNotExist(err) {
		t.Fatalf("interrupted campaign has a done marker (stat err %v)", err)
	}

	// Restart: a fresh engine and manager over the same store — a new
	// process. Replay must re-admit the campaign, resume the remainder,
	// and never recompute a journaled point.
	resumeEng := New(Options{Workers: 2, CacheDir: crashDir, Simulate: plain(stubResult)})
	resumeMgr := NewCampaignManager(resumeEng, CampaignManagerOptions{Dir: filepath.Join(crashDir, "campaigns")})
	completed, resumed, err := resumeMgr.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if completed != 0 || resumed != 1 {
		t.Fatalf("replay: completed=%d resumed=%d, want 0/1", completed, resumed)
	}
	resumeRun, ok := resumeMgr.Get(victimRun.ID())
	if !ok {
		t.Fatalf("campaign %s not re-admitted", victimRun.ID())
	}
	final := waitCampaign(t, resumeRun)
	if final.State != CampaignDone || final.Completed != total || final.Failed != 0 {
		t.Fatalf("resumed run: %+v", final)
	}
	if final.Replayed != killedAt {
		t.Fatalf("replayed %d points, journal recorded %d", final.Replayed, killedAt)
	}

	gotJSON, gotCSV := exportBytes(t, resumeRun)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("resumed JSON export differs from uninterrupted run:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("resumed CSV export differs from uninterrupted run:\n got: %s\nwant: %s", gotCSV, wantCSV)
	}

	// Zero recomputation: the resumed engine never re-simulates a
	// journaled point. (It may simulate even fewer than total-killedAt: a
	// point can persist its result and then be cancelled before its
	// journal append, in which case resume serves it as a disk hit.)
	stats := resumeEng.Stats()
	if got, max := stats.Simulations, uint64(total-killedAt); got > max {
		t.Errorf("resumed engine ran %d simulations, want <= %d (journaled points must not re-simulate)", got, max)
	}
	if stats.DiskHits < uint64(killedAt) {
		t.Errorf("resumed engine disk hits %d < %d journaled points", stats.DiskHits, killedAt)
	}
}

// TestReplayCompletedCampaignServesExport covers the done-marker path: a
// finished campaign replayed by a fresh process keeps serving its export
// without running anything.
func TestReplayCompletedCampaignServesExport(t *testing.T) {
	dir := t.TempDir()
	spec := durableSpec()
	eng := New(Options{Workers: 2, CacheDir: dir, Simulate: plain(stubResult)})
	mgr := NewCampaignManager(eng, CampaignManagerOptions{Dir: filepath.Join(dir, "campaigns")})
	run, err := mgr.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, run)
	wantJSON, _ := exportBytes(t, run)

	eng2 := New(Options{Workers: 2, CacheDir: dir, Simulate: plain(stubResult)})
	mgr2 := NewCampaignManager(eng2, CampaignManagerOptions{Dir: filepath.Join(dir, "campaigns")})
	completed, resumed, err := mgr2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if completed != 1 || resumed != 0 {
		t.Fatalf("replay: completed=%d resumed=%d, want 1/0", completed, resumed)
	}
	run2, _ := mgr2.Get(run.ID())
	gotJSON, _ := exportBytes(t, run2)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("replayed export differs from original")
	}
	if sims := eng2.Stats().Simulations; sims != 0 {
		t.Errorf("replayed-complete campaign ran %d simulations, want 0", sims)
	}
}

// TestCampaignRetryDegradesToPartial covers bounded retry: a point whose
// panics outlast its retries fails alone; a transient panic retries away.
func TestCampaignRetryDegradesToPartial(t *testing.T) {
	spec := durableSpec()
	spec.Retries = 3
	total := len(spec.Configs) * len(spec.Benchmarks) * len(spec.Seeds)
	var mu sync.Mutex
	panicsLeft := map[string]int{
		"gzip/1": 2,  // transient: retries absorb it
		"mcf/2":  99, // permanent: exhausts any retry bound
	}
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		k := fmt.Sprintf("%s/%d", b, s)
		mu.Lock()
		left := panicsLeft[k]
		if left > 0 {
			panicsLeft[k] = left - 1
		}
		mu.Unlock()
		if left > 0 {
			panic("injected transient fault")
		}
		return stubResult(cfg, b, n, s)
	}
	eng := New(Options{Workers: 2, Simulate: plain(sim)})
	mgr := NewCampaignManager(eng, CampaignManagerOptions{})
	run, err := mgr.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitCampaign(t, run)
	if st.State != CampaignDone {
		t.Fatalf("state %s, want done (partial-with-errors still completes)", st.State)
	}
	// The permanent panicker hits 2 points (both configs of mcf seed 2).
	if st.Failed != 2 || st.Completed != total-2 {
		t.Fatalf("completed=%d failed=%d, want %d/2", st.Completed, st.Failed, total-2)
	}
	if st.Retries == 0 {
		t.Fatal("no retries recorded despite injected transient panics")
	}
	camp, err := run.Export(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var errRows int
	for _, jr := range camp.Results {
		if jr.Error != "" {
			errRows++
		}
	}
	if errRows != 2 {
		t.Fatalf("export carries %d error rows, want 2", errRows)
	}
	if ms := mgr.Stats(); ms.FailedPoints != 2 || ms.Retries == 0 {
		t.Fatalf("manager stats: %+v", ms)
	}
}

// TestRunCampaignContextRetries covers the synchronous path: Retries turns
// a transient panic into a success, and an exhausted bound surfaces as
// the point's SimPanicError.
func TestRunCampaignContextRetries(t *testing.T) {
	var mu sync.Mutex
	left := 2
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		mu.Lock()
		defer mu.Unlock()
		if left > 0 {
			left--
			panic("transient")
		}
		return stubResult(cfg, b, n, s)
	}
	eng := New(Options{Workers: 1, Simulate: plain(sim)})
	spec := CampaignSpec{
		Configs:      []config.Config{config.MALEC()},
		Benchmarks:   []string{"gzip"},
		Instructions: 1000,
		Retries:      3,
	}
	camp, err := eng.RunCampaign(spec)
	if err != nil {
		t.Fatalf("retries did not absorb the transient panic: %v", err)
	}
	if len(camp.Results) != 1 || camp.Results[0].Result.Cycles == 0 {
		t.Fatalf("campaign results: %+v", camp.Results)
	}

	mu.Lock()
	left = 99
	mu.Unlock()
	eng2 := New(Options{Workers: 1, Simulate: plain(sim)})
	spec.Retries = 1
	_, err = eng2.RunCampaign(spec)
	var pe *SimPanicError
	if !errors.As(err, &pe) || pe.Key != KeyFor(config.MALEC(), "gzip", 1000, 1) {
		t.Fatalf("exhausted retries returned %v, want the point's SimPanicError", err)
	}
}

// TestBackoffBounds checks the jitter window: attempt n sleeps uniformly
// in [d/2, d] where d is the capped exponential.
func TestBackoffBounds(t *testing.T) {
	for attempt := 0; attempt < 12; attempt++ {
		d := backoffBase << attempt
		if d > backoffCap || d <= 0 {
			d = backoffCap
		}
		for i := 0; i < 200; i++ {
			got := jobBackoff(attempt)
			if got < d/2 || got > d {
				t.Fatalf("jobBackoff(%d) = %v, want in [%v, %v]", attempt, got, d/2, d)
			}
		}
	}
}

// TestBackoffCap checks that huge attempt numbers saturate at the cap
// instead of overflowing the shift.
func TestBackoffCap(t *testing.T) {
	for _, attempt := range []int{29, 30, 31, 63, 1000} {
		got := jobBackoff(attempt)
		if got < backoffCap/2 || got > backoffCap {
			t.Fatalf("jobBackoff(%d) = %v, want in [%v, %v]", attempt, got, backoffCap/2, backoffCap)
		}
	}
}

// TestCampaignSurvivesJournalFaults arms the journal failpoints hard —
// most appends dropped or torn — and checks the durability contract still
// holds: the journal is advisory for streaming, the content-addressed
// store is the source of truth, so a fresh process replays the campaign
// and exports identical bytes without re-simulating anything.
func TestCampaignSurvivesJournalFaults(t *testing.T) {
	faultinject.JournalWrite.Arm(0.5)
	faultinject.JournalTorn.Arm(0.5)
	t.Cleanup(func() {
		faultinject.JournalWrite.Disarm()
		faultinject.JournalTorn.Disarm()
	})

	dir := t.TempDir()
	spec := durableSpec()
	eng := New(Options{Workers: 2, CacheDir: dir, Simulate: plain(stubResult)})
	mgr := NewCampaignManager(eng, CampaignManagerOptions{Dir: filepath.Join(dir, "campaigns")})
	run, err := mgr.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitCampaign(t, run); st.State != CampaignDone {
		t.Fatalf("faulted campaign state %s, want done (journal faults must not fail points)", st.State)
	}
	if faultinject.JournalWrite.Fires()+faultinject.JournalTorn.Fires() == 0 {
		t.Fatal("failpoints armed but never fired; test exercised nothing")
	}
	wantJSON, wantCSV := exportBytes(t, run)

	faultinject.JournalWrite.Disarm()
	faultinject.JournalTorn.Disarm()
	eng2 := New(Options{Workers: 2, CacheDir: dir, Simulate: plain(stubResult)})
	mgr2 := NewCampaignManager(eng2, CampaignManagerOptions{Dir: filepath.Join(dir, "campaigns")})
	completed, resumed, err := mgr2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if completed != 1 || resumed != 0 {
		t.Fatalf("replay: completed=%d resumed=%d, want 1/0 (done marker survived)", completed, resumed)
	}
	run2, _ := mgr2.Get(run.ID())
	// The replayed record log may be shorter than the campaign (dropped and
	// torn appends), but the cursors it does expose stay dense.
	recs, _, _ := run2.RecordsAfter(0)
	for i, rec := range recs {
		if rec.Seq != uint64(i)+1 {
			t.Fatalf("replayed record %d has seq %d; faulted journals must renumber densely", i, rec.Seq)
		}
	}
	gotJSON, gotCSV := exportBytes(t, run2)
	if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
		t.Error("export after journal faults + replay differs from the original")
	}
	if sims := eng2.Stats().Simulations; sims != 0 {
		t.Errorf("replay after journal faults ran %d simulations, want 0 (results come from the store)", sims)
	}
}

// TestPoisonedMapBounded poisons two keys past the quarantine bound: the
// two oldest are forgotten (FIFO) and re-runnable, the rest still fail
// fast.
func TestPoisonedMapBounded(t *testing.T) {
	eng := New(Options{Workers: 1,
		Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
			panic("always")
		})})
	cfg := config.MALEC()
	const n = maxPoisonedKeys + 2
	for seed := uint64(1); seed <= n; seed++ {
		_, _, err := eng.RunContext(context.Background(), cfg, "gzip", 1000, seed)
		var pe *SimPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	st := eng.Stats()
	if st.PoisonedKeys != maxPoisonedKeys {
		t.Fatalf("poisoned map holds %d keys, want FIFO bound %d", st.PoisonedKeys, maxPoisonedKeys)
	}
	if st.Panics != n {
		t.Fatalf("panics %d, want %d", st.Panics, n)
	}
	// The two oldest keys were evicted; the third oldest and the newest
	// are still quarantined.
	for seed := uint64(1); seed <= 2; seed++ {
		if eng.ForgetPoisoned(KeyFor(cfg, "gzip", 1000, seed)) {
			t.Fatalf("seed %d still quarantined past the bound", seed)
		}
	}
	for _, seed := range []uint64{3, n} {
		key := KeyFor(cfg, "gzip", 1000, seed)
		if !eng.ForgetPoisoned(key) {
			t.Fatalf("seed %d not quarantined", seed)
		}
		if eng.ForgetPoisoned(key) {
			t.Fatalf("ForgetPoisoned reported forgotten seed %d as quarantined", seed)
		}
	}
	if got := eng.Stats().PoisonedKeys; got != maxPoisonedKeys-2 {
		t.Fatalf("poisoned map holds %d keys after two forgets, want %d", got, maxPoisonedKeys-2)
	}
	// A forgotten key re-runs (and panics again) instead of failing fast.
	if _, _, err := eng.RunContext(context.Background(), cfg, "gzip", 1000, 3); err == nil {
		t.Fatal("forgotten key did not re-run")
	}
	if st := eng.Stats(); st.Panics != n+1 {
		t.Fatalf("panics %d after re-running a forgotten key, want %d", st.Panics, n+1)
	}
}

func TestPruneCorrupt(t *testing.T) {
	dir := t.TempDir()
	eng := New(Options{CacheDir: dir, Simulate: plain(stubResult)})
	shard := filepath.Join(dir, "v1", "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(shard, "stale.json.corrupt")
	fresh := filepath.Join(shard, "fresh.json.corrupt")
	live := filepath.Join(shard, "live.json")
	for _, p := range []string{old, fresh, live} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}

	if n := eng.PruneCorrupt(24 * time.Hour); n != 1 {
		t.Fatalf("pruned %d files, want 1", n)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("stale .corrupt file survived the sweep")
	}
	for _, p := range []string{fresh, live} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s removed by the sweep: %v", p, err)
		}
	}
	if got := eng.Stats().CorruptPruned; got != 1 {
		t.Fatalf("CorruptPruned = %d, want 1", got)
	}
	if n := eng.PruneCorrupt(0); n != 0 {
		t.Fatalf("retention 0 pruned %d files, want none", n)
	}
}
