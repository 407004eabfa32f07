package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/stats"
	"malec/internal/trace"
)

// plain adapts a per-point stub that ignores cancellation to SimulateFunc:
// it runs the stub on each job of the unit in turn.
func plain(sim func(cfg config.Config, b string, n int, s uint64) cpu.Result) SimulateFunc {
	return func(_ context.Context, jobs []Job) ([]cpu.Result, error) {
		res := make([]cpu.Result, len(jobs))
		for i, j := range jobs {
			res[i] = sim(j.Config, j.Benchmark, j.Instructions, j.Seed)
		}
		return res, nil
	}
}

// runPoint runs one point through RunContext and reports an error as a
// test failure.
func runPoint(t testing.TB, e *Engine, cfg config.Config, benchmark string, instructions int, seed uint64) (cpu.Result, Source) {
	t.Helper()
	res, src, err := e.RunContext(context.Background(), cfg, benchmark, instructions, seed)
	if err != nil {
		t.Errorf("%s/%s: %v", cfg.Name, benchmark, err)
	}
	return res, src
}

// stubResult fabricates a distinguishable result for scheduler tests.
func stubResult(cfg config.Config, benchmark string, instructions int, seed uint64) cpu.Result {
	return cpu.Result{
		Config:       cfg.Name,
		Benchmark:    benchmark,
		Instructions: uint64(instructions),
		Cycles:       uint64(instructions)*2 + seed,
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	a := KeyFor(config.MALEC(), "gzip", 1000, 1)
	b := KeyFor(config.MALECNoMerge(), "gzip", 1000, 1)
	if a == b {
		t.Fatalf("different configs share key %v", a)
	}
	if a != KeyFor(config.MALEC(), "gzip", 1000, 1) {
		t.Fatalf("identical points produced different keys")
	}
	// The digest must see every parameter, not just the name.
	c1 := config.MALEC()
	c2 := config.MALEC()
	c2.MSHRs++
	if KeyFor(c1, "gzip", 1000, 1) == KeyFor(c2, "gzip", 1000, 1) {
		t.Fatalf("config parameter change did not change the key")
	}
}

// TestKeyIgnoresHostSimulatorToggles checks a configuration stored by an
// older version, such as a campaign journal manifest, that still encodes
// the retired host-simulator toggles, set either way: it decodes (as
// journal replay decodes it, ignoring unknown fields) to the key the
// current configuration has.
func TestKeyIgnoresHostSimulatorToggles(t *testing.T) {
	cfg := config.MALEC()
	enc, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, toggles := range []string{
		`"DisableCycleSkip":false,"DisableWakeup":false,"DisableMemIndex":false,`,
		`"DisableCycleSkip":true,"DisableWakeup":true,"DisableMemIndex":true,`,
	} {
		stored := bytes.Replace(enc, []byte(`"Bypass":`), []byte(toggles+`"Bypass":`), 1)
		var got config.Config
		if err := json.Unmarshal(stored, &got); err != nil {
			t.Fatal(err)
		}
		if KeyFor(got, "gzip", 1000, 1) != KeyFor(cfg, "gzip", 1000, 1) {
			t.Errorf("stored config with %s keys differently from the current one", toggles)
		}
	}
}

// TestConfigDigestPinned pins the content digest of every preset, plus one
// sampled configuration, to the values every stored result, checkpoint
// and campaign journal already uses. It fails if the JSON encoding, the
// field order or the splice of the retired host-simulator toggles
// (retiredFields) changes.
func TestConfigDigestPinned(t *testing.T) {
	want := map[string]string{
		"Base1ldst":           "83622cef8661cb23",
		"Base2ld1st":          "83622cef5e6fe8e7",
		"Base2ld1st_1cycleL1": "83622cef9ce61d11",
		"MALEC":               "da8a674afe09ec76",
		"MALEC_3cycleL1":      "da8a674ad8419b17",
		"MALEC_WDU16":         "10a4a4dc790f2060",
		"MALEC_WDU32":         "021464b6a6055991",
		"MALEC_WDU8":          "1b563a363774528c",
		"MALEC_bypass":        "76b3585193c30718",
		"MALEC_noFeedback":    "c41bcbee26df9e14",
		"MALEC_noMerge":       "da8a674a516df6cb",
		"MALEC_noWT":          "8d324afd098c2c8e",
		"MALEC_segWT":         "a1f97ed70ceb1c8b",
	}
	names := config.Names()
	if len(names) != len(want) {
		t.Errorf("%d presets registered, %d pinned: pin the digest of every new preset", len(names), len(want))
	}
	for _, name := range names {
		cfg, _ := config.Named(name)
		if got := ConfigDigest(cfg); got != want[name] {
			t.Errorf("ConfigDigest(%s) = %s, want %s", name, got, want[name])
		}
	}
	sampled := config.MALEC()
	sampled.Sampling = config.DefaultSampling()
	if got, want := ConfigDigest(sampled), "da8a674a20ec1f34"; got != want {
		t.Errorf("ConfigDigest(MALEC with DefaultSampling) = %s, want %s", got, want)
	}
}

func TestMemoryCacheHit(t *testing.T) {
	var calls atomic.Int64
	e := New(Options{Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		return stubResult(cfg, b, n, s)
	})})
	cfg := config.MALEC()

	r1, src1 := runPoint(t, e, cfg, "gzip", 1000, 1)
	r2, src2 := runPoint(t, e, cfg, "gzip", 1000, 1)
	if src1 != SourceSimulated || src2 != SourceMemory {
		t.Fatalf("sources = %v, %v; want simulated, memory", src1, src2)
	}
	if r1 != r2 {
		t.Fatalf("cached result differs from computed result")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("simulate ran %d times, want 1", n)
	}
	s := e.Stats()
	if s.Hits != 1 || s.Simulations != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 simulation, 1 entry", s)
	}
}

func TestSingleflightDeduplication(t *testing.T) {
	const waiters = 16
	var calls atomic.Int64
	release := make(chan struct{})
	e := New(Options{Workers: waiters, Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		<-release
		return stubResult(cfg, b, n, s)
	})})
	cfg := config.MALEC()

	var wg sync.WaitGroup
	results := make([]cpu.Result, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = runPoint(t, e, cfg, "mcf", 5000, 7)
		}(i)
	}
	// Wait until the leader is inside simulate, then let everyone pile up
	// on the in-flight call before releasing it.
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	for e.Stats().Dedup < waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("simulate ran %d times for one key, want 1", n)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different result", i)
		}
	}
	s := e.Stats()
	if s.Simulations != 1 || s.Dedup != waiters-1 {
		t.Fatalf("stats = %+v; want 1 simulation, %d dedup", s, waiters-1)
	}
}

// TestResidentCountsHitsOnly checks that Resident counts a resident result
// as one memory hit and a missing one as nothing.
func TestResidentCountsHitsOnly(t *testing.T) {
	e := New(Options{Simulate: plain(stubResult)})
	cfg := config.MALEC()
	key := KeyFor(cfg, "gzip", 1000, 1)
	if _, ok := e.Resident(key); ok {
		t.Fatal("resident before it ran")
	}
	runPoint(t, e, cfg, "gzip", 1000, 1)
	if res, ok := e.Resident(key); !ok || res.Benchmark != "gzip" {
		t.Fatalf("resident = %+v, %v", res, ok)
	}
	if s := e.Stats(); s.Hits != 1 || s.Simulations != 1 || s.Lookups() != 2 {
		t.Fatalf("stats %+v, want 1 simulation and 1 hit", s)
	}
}

func TestCacheEvictionBound(t *testing.T) {
	var calls atomic.Int64
	e := New(Options{MaxCacheEntries: 2, Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		return stubResult(cfg, b, n, s)
	})})
	cfg := config.MALEC()

	runPoint(t, e, cfg, "gzip", 1000, 1) // oldest
	runPoint(t, e, cfg, "mcf", 1000, 1)
	runPoint(t, e, cfg, "art", 1000, 1) // evicts gzip
	if s := e.Stats(); s.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2", s.Entries)
	}
	if _, ok := e.Resident(KeyFor(cfg, "gzip", 1000, 1)); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := e.Resident(KeyFor(cfg, "art", 1000, 1)); !ok {
		t.Fatal("newest entry evicted")
	}
	// The evicted point re-simulates; the retained one stays a hit.
	if _, src := runPoint(t, e, cfg, "gzip", 1000, 1); src != SourceSimulated {
		t.Fatalf("evicted point served as %v", src)
	}
	if _, src := runPoint(t, e, cfg, "art", 1000, 1); src != SourceMemory {
		t.Fatalf("retained point served as %v", src)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("simulate ran %d times, want 4", n)
	}
}

func TestPanicReleasesWaitersAndWorkerSlot(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	e := New(Options{Workers: 1, Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		if b == "mcf" {
			calls.Add(1)
			started <- struct{}{}
			<-release
			panic("simulator exploded")
		}
		return stubResult(cfg, b, n, s)
	})})
	cfg := config.MALEC()

	mustFail := func(name string) {
		_, _, err := e.RunContext(context.Background(), cfg, "mcf", 1000, 1)
		var pe *SimPanicError
		if !errors.As(err, &pe) || pe.Value != "simulator exploded" {
			t.Errorf("%s: err = %v, want *SimPanicError with the simulator's value", name, err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); mustFail("leader") }()
	<-started
	go func() { defer wg.Done(); mustFail("waiter") }()
	for e.Stats().Dedup == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	// The Workers=1 slot must have been released despite the panic and no
	// bogus result may be cached (the key itself is quarantined: repeat
	// calls fail fast without re-running, see TestPanicQuarantinesKey).
	if _, ok := e.Resident(KeyFor(cfg, "mcf", 1000, 1)); ok {
		t.Fatal("panicked simulation left a cached result")
	}
	if res, _ := runPoint(t, e, cfg, "gzip", 1000, 1); res.Cycles == 0 {
		t.Fatalf("engine unusable after panic: %+v", res)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("panicking simulate ran %d times, want 1", n)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		return stubResult(cfg, b, n, s)
	}
	cfg := config.Base1ldst()

	e1 := New(Options{CacheDir: dir, Simulate: plain(sim)})
	want, _ := runPoint(t, e1, cfg, "gzip", 1000, 1)

	// The entry lands under the format-version directory, sharded by
	// digest prefix.
	key := KeyFor(cfg, "gzip", 1000, 1)
	entryPath := filepath.Join(dir, fmt.Sprintf("v%d", DiskFormatVersion), key.shard(), key.filename())
	if _, err := os.Stat(entryPath); err != nil {
		t.Fatalf("disk entry not written: %v", err)
	}

	// A fresh engine over the same directory serves from disk.
	e2 := New(Options{CacheDir: dir, Simulate: plain(sim)})
	got, src := runPoint(t, e2, cfg, "gzip", 1000, 1)
	if src != SourceDisk {
		t.Fatalf("second engine source = %v, want disk", src)
	}
	if got.Cycles != want.Cycles || got.Benchmark != want.Benchmark {
		t.Fatalf("disk round-trip changed the result: got %+v want %+v", got, want)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("simulate ran %d times across engines, want 1", n)
	}

	// A corrupt entry is a miss, not an error.
	if err := os.WriteFile(entryPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := New(Options{CacheDir: dir, Simulate: plain(sim)})
	if _, src := runPoint(t, e3, cfg, "gzip", 1000, 1); src != SourceSimulated {
		t.Fatalf("corrupt entry served as %v, want re-simulation", src)
	}

	// An entry from another format version is a miss: stale caches must
	// never stand in for fresh results after a simulator change.
	stale, err := json.Marshal(diskEntry{Version: DiskFormatVersion + 1, Key: key, Result: want})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	e4 := New(Options{CacheDir: dir, Simulate: plain(sim)})
	if _, src := runPoint(t, e4, cfg, "gzip", 1000, 1); src != SourceSimulated {
		t.Fatalf("stale-version entry served as %v, want re-simulation", src)
	}
}

func TestCampaignContainsSimulatorPanic(t *testing.T) {
	e := New(Options{Workers: 2, Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		if b == "mcf" {
			panic("bad point")
		}
		return stubResult(cfg, b, n, s)
	})})
	spec := campaignSpec(2)
	_, err := e.RunCampaign(spec)
	var pe *SimPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("campaign error = %v, want *SimPanicError", err)
	}
	if pe.Key.Benchmark != "mcf" {
		t.Fatalf("panic attributed to %q, want mcf", pe.Key.Benchmark)
	}
	// The engine and its workers survive: a spec without the bad point
	// completes normally.
	good := spec
	good.Benchmarks = []string{"gzip", "cjpeg"}
	camp, err := e.RunCampaign(good)
	if err != nil || len(camp.Results) != 8 {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
}

// campaignSpec is a small real-simulator campaign: 2 configs x 3
// benchmarks, small instruction budget.
func campaignSpec(workers int) CampaignSpec {
	return CampaignSpec{
		Configs:      []config.Config{config.Base1ldst(), config.MALEC()},
		Benchmarks:   []string{"gzip", "mcf", "cjpeg"},
		Instructions: 20000,
		Seeds:        []uint64{1, 2},
		Workers:      workers,
	}
}

func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	e1 := New(Options{Workers: 1})
	e8 := New(Options{Workers: 8})

	c1, err := e1.RunCampaign(campaignSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	c8, err := e8.RunCampaign(campaignSpec(8))
	if err != nil {
		t.Fatal(err)
	}

	j1, err := c1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j8, err := c8.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j8) {
		t.Fatalf("JSON export differs between Workers=1 and Workers=8")
	}

	v1, err := c1.CSV()
	if err != nil {
		t.Fatal(err)
	}
	v8, err := c8.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1, v8) {
		t.Fatalf("CSV export differs between Workers=1 and Workers=8")
	}

	// A repeated run is served entirely from cache: zero new simulations.
	before := e8.Stats()
	again, err := e8.RunCampaign(campaignSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	after := e8.Stats()
	if after.Simulations != before.Simulations {
		t.Fatalf("repeat campaign ran %d new simulations, want 0",
			after.Simulations-before.Simulations)
	}
	if after.Hits-before.Hits != uint64(len(again.Results)) {
		t.Fatalf("repeat campaign: %d cache hits for %d jobs",
			after.Hits-before.Hits, len(again.Results))
	}
	for i := range again.Results {
		if again.Results[i].Source != SourceMemory {
			t.Fatalf("repeat job %d served from %v, want memory", i, again.Results[i].Source)
		}
	}
	ja, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Sources differ (memory vs simulated) but results must not.
	var full, cached Campaign
	if err := json.Unmarshal(j8, &full); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ja, &cached); err != nil {
		t.Fatal(err)
	}
	for i := range full.Results {
		if full.Results[i].Result.Cycles != cached.Results[i].Result.Cycles {
			t.Fatalf("job %d: cached cycles differ from computed", i)
		}
	}
}

func TestCampaignProgressAndOrder(t *testing.T) {
	var calls atomic.Int64
	e := New(Options{Workers: 4, Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		return stubResult(cfg, b, n, s)
	})})
	spec := campaignSpec(4)
	var mu sync.Mutex
	var seen []int
	spec.Progress = func(done, total int, j Job) {
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
		if total != 12 {
			t.Errorf("total = %d, want 12", total)
		}
	}
	c, err := e.RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 {
		t.Fatalf("progress called %d times, want 12", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonically counted", seen)
		}
	}
	// Results come back in expansion order regardless of completion order.
	for i, r := range c.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
	}
	if c.Results[0].ConfigName != "Base1ldst" || c.Results[0].Benchmark != "gzip" || c.Results[0].Seed != 1 {
		t.Fatalf("unexpected first job %+v", c.Results[0].Job)
	}
}

func TestCampaignRejectsBadSpec(t *testing.T) {
	e := New(Options{Simulate: plain(stubResult)})
	if _, err := e.RunCampaign(CampaignSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := e.RunCampaign(CampaignSpec{
		Configs:    []config.Config{config.MALEC()},
		Benchmarks: []string{"no-such-benchmark"},
	}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestCampaignRejectsRepeats checks that a spec naming a configuration, a
// benchmark or a seed twice is rejected with an error naming the repeat,
// by RunCampaign and by a campaign manager, before any job runs.
func TestCampaignRejectsRepeats(t *testing.T) {
	base1, malec := config.Base1ldst(), config.MALEC()
	cases := []struct {
		spec CampaignSpec
		want string
	}{
		{CampaignSpec{Configs: []config.Config{malec, base1, malec}, Benchmarks: []string{"gzip"}},
			`engine: config "MALEC" is repeated`},
		{CampaignSpec{Configs: []config.Config{malec}, Benchmarks: []string{"gzip", "mcf", "gzip"}},
			`engine: benchmark "gzip" is repeated`},
		{CampaignSpec{Configs: []config.Config{malec}, Benchmarks: []string{"gzip"}, Seeds: []uint64{7, 7}},
			`engine: seed 7 is repeated`},
	}
	e := New(Options{Simulate: plain(stubResult)})
	m := NewCampaignManager(e, CampaignManagerOptions{})
	for _, c := range cases {
		if _, err := e.RunCampaign(c.spec); err == nil || err.Error() != c.want {
			t.Errorf("RunCampaign: err %v, want %q", err, c.want)
		}
		if _, err := m.Start(c.spec); err == nil || err.Error() != c.want {
			t.Errorf("Start: err %v, want %q", err, c.want)
		}
	}
	if st := e.Stats(); st.Lookups() != 0 {
		t.Fatalf("stats %+v: a rejected campaign ran jobs", st)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	res := cpu.RunBenchmark(config.MALEC(), "gzip", 20000, 1)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back cpu.Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != res.Cycles || back.Energy.Total() != res.Energy.Total() {
		t.Fatalf("round trip changed scalars")
	}
	if back.Counters.Get(stats.CtrIssueLoads) != res.Counters.Get(stats.CtrIssueLoads) {
		t.Fatalf("round trip dropped counters")
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-marshal not byte-identical")
	}
}

// TestTraceCacheCampaignEquivalence runs one real campaign over exact and
// sampled configs five ways — the default trace cache at 3 workers, a
// one-record trace cache at 3 workers, the default at 1 and 2 workers, and
// every point on its own through RunContext — and requires
// byte-identical JSON and CSV exports: the shared trace arena must be
// indistinguishable from per-simulation generation, a sampled pass from
// per-point runs, and the exports must not depend on how points are spread
// over workers. Each workload mixes exact and sampled jobs; the sampled
// ones run under two schedules, and Base1ldst and Base2ld1st share one
// memory side, so each workload has three sampled groups. It also checks
// the cache actually engaged (every exact config after the first is a
// trace hit, and sampled configs bypass it) and that stats flow through
// Engine.Stats.
func TestTraceCacheCampaignEquivalence(t *testing.T) {
	cfgs := []config.Config{config.Base1ldst(), config.Base2ld1st(), config.MALEC()}
	for _, c := range cfgs[:3] {
		c.Sampling = &config.Sampling{Warmup: 200, Detail: 800, Interval: 4000}
		cfgs = append(cfgs, c)
	}
	for _, c := range cfgs[:2] {
		c.Sampling = &config.Sampling{Warmup: 100, Detail: 400, Interval: 5000}
		cfgs = append(cfgs, c)
	}
	spec := CampaignSpec{
		Configs:      cfgs,
		Benchmarks:   []string{"gzip", "mcf"},
		Instructions: 20000,
		Seeds:        []uint64{1, 2},
		Workers:      3,
	}
	var last *Campaign // the campaign exports last ran
	exports := func(e *Engine, spec CampaignSpec) (js, csv []byte) {
		t.Helper()
		c, err := e.RunCampaign(spec)
		if err != nil {
			t.Fatal(err)
		}
		if js, err = c.JSON(); err != nil {
			t.Fatal(err)
		}
		if csv, err = c.CSV(); err != nil {
			t.Fatal(err)
		}
		last = c
		return js, csv
	}
	cached := New(Options{Workers: 3})
	// A one-record budget makes every exact point generate its own trace.
	fresh := New(Options{Workers: 3})
	fresh.traces = trace.NewCache(1)
	jc, vc := exports(cached, spec)
	// 4 workloads x 3 sampled groups, each warmed once over its 20,000
	// records, with 5 or 4 windows and no restore.
	if warmed, hits, misses := passCounts(last); warmed != 4*3*20000 || hits != 0 || misses != 4*(5+5+4) {
		t.Fatalf("warmed %d records, checkpoint hits/misses %d/%d; want %d, 0/%d", warmed, hits, misses, 4*3*20000, 4*(5+5+4))
	}
	jf, vf := exports(fresh, spec)
	if !bytes.Equal(jc, jf) {
		t.Fatal("trace-cached campaign JSON differs from per-simulation generation")
	}
	if !bytes.Equal(vc, vf) {
		t.Fatal("trace-cached campaign CSV differs from per-simulation generation")
	}
	for _, workers := range []int{1, 2} {
		w := spec
		w.Workers = workers
		jw, vw := exports(New(Options{Workers: workers}), w)
		if !bytes.Equal(jc, jw) {
			t.Fatalf("campaign JSON at %d workers differs from 3 workers", workers)
		}
		if !bytes.Equal(vc, vw) {
			t.Fatalf("campaign CSV at %d workers differs from 3 workers", workers)
		}
	}
	// The per-point reference: every job on its own through RunContext on
	// a fresh engine, a unit of one each.
	perPoint := New(Options{Workers: 3})
	last = &Campaign{Spec: spec}
	for _, j := range spec.expand() {
		res, src, err := perPoint.RunContext(context.Background(), j.Config, j.Benchmark, j.Instructions, j.Seed)
		if err != nil {
			t.Fatal(err)
		}
		last.Results = append(last.Results, JobResult{Job: j, Source: src, Result: res})
	}
	jp, err := last.JSON()
	if err != nil {
		t.Fatal(err)
	}
	vp, err := last.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jc, jp) {
		t.Fatal("campaign JSON with sampled passes differs from per-point runs")
	}
	if !bytes.Equal(vc, vp) {
		t.Fatal("campaign CSV with sampled passes differs from per-point runs")
	}
	// Per point, each of the 5 sampled configs of a workload warms on its own.
	if warmed, _, _ := passCounts(last); warmed != 4*5*20000 {
		t.Fatalf("per-point campaign warmed %d records, want %d", warmed, 4*5*20000)
	}

	cs := cached.Stats()
	// 2 benchmarks x 2 seeds: one miss each; the other 2 exact configs
	// per workload share the arena. The 3 sampled configs generate their
	// own traces ahead and never touch the cache.
	if cs.TraceMisses != 4 || cs.TraceHits != 8 {
		t.Fatalf("trace cache stats hits=%d misses=%d, want 8/4", cs.TraceHits, cs.TraceMisses)
	}
	// 80,000 arena records are under smallCampaignRecords, so the
	// campaign leaves its arenas cached.
	if cs.TraceRecords != 4*20000 {
		t.Fatalf("trace cache holds %d records, want %d", cs.TraceRecords, 4*20000)
	}
	fs := fresh.Stats()
	if fs.TraceHits != 0 || fs.TraceRecords != 0 {
		t.Fatalf("one-record trace cache served or held records: %+v", fs)
	}
}

// TestCampaignsLeaveNoTraceArenas checks that a campaign whose arenas
// together exceed smallCampaignRecords drops every (benchmark, seed)
// arena it generated: after a completed campaign at one and three
// workers, a campaign cancelled mid-group and a resumed durable campaign,
// the trace cache holds no records. Dropping an arena only once its group
// has finished must not cost a generation: a Fig. 4 shaped grid (5 exact
// configs on 12 workloads) still misses once per workload.
func TestCampaignsLeaveNoTraceArenas(t *testing.T) {
	// 12 workloads of 45,000 records: just over smallCampaignRecords.
	fig4 := CampaignSpec{
		Configs:      config.Fig4Configs(),
		Benchmarks:   []string{"gzip", "mcf", "art", "mpeg2enc", "ptrchase", "tlbthrash"},
		Instructions: 45000,
		Seeds:        []uint64{1, 2},
	}
	if 12*fig4.Instructions <= smallCampaignRecords {
		t.Fatalf("grid of %d arena records does not exceed smallCampaignRecords", 12*fig4.Instructions)
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spec := fig4
			spec.Workers = workers
			if workers == 1 {
				spec.Configs = spec.Configs[:1] // the arena traffic, at a fifth of the cost
			}
			e := New(Options{Workers: workers})
			if _, err := e.RunCampaign(spec); err != nil {
				t.Fatal(err)
			}
			hits := uint64(12 * (len(spec.Configs) - 1))
			if s := e.Stats(); s.TraceHits != hits || s.TraceMisses != 12 || s.TraceRecords != 0 {
				t.Fatalf("trace hits=%d misses=%d records=%d, want %d/12/0", s.TraceHits, s.TraceMisses, s.TraceRecords, hits)
			}
		})
	}

	t.Run("cancelled", func(t *testing.T) {
		// Cancel after the second of the first workload's five configs:
		// its arena is cached and its group unfinished. The last
		// workload's arena, cached beforehand, belongs to a group the
		// campaign never reaches, so it must stay.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		spec := fig4
		spec.Workers = 1
		var held int
		e := New(Options{Workers: 1})
		_, release := e.traces.Records("tlbthrash", 2, spec.Instructions)
		release()
		spec.Progress = func(done, total int, job Job) {
			if done == 2 {
				held = e.Stats().TraceRecords
				cancel()
			}
		}
		if _, err := e.RunCampaignContext(ctx, spec); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if held != 2*spec.Instructions {
			t.Fatalf("mid-group cache held %d records, want two %d-record arenas", held, spec.Instructions)
		}
		if s := e.Stats(); s.TraceRecords != spec.Instructions {
			t.Fatalf("cancelled campaign left %d trace records cached, want only the unreached workload's %d", s.TraceRecords, spec.Instructions)
		}
		hits := e.Stats().TraceHits
		if _, release := e.traces.Records("tlbthrash", 2, spec.Instructions); release != nil {
			release()
		}
		if e.Stats().TraceHits != hits+1 {
			t.Fatal("the unreached workload's arena was dropped")
		}
	})

	t.Run("resumed", func(t *testing.T) {
		// A stub victim journals a few points and is cancelled; a fresh
		// engine with real traces resumes the rest. The victim finishes
		// a handful of points, so at least 15 of the 18 workloads of
		// 45,000 records are left: more than smallCampaignRecords.
		spec := durableSpec()
		spec.Seeds = []uint64{1, 2, 3, 4, 5, 6}
		spec.Instructions = fig4.Instructions
		total := len(spec.Configs) * len(spec.Benchmarks) * len(spec.Seeds)
		dir := t.TempDir()
		gate := make(chan struct{}, 4*total)
		for i := 0; i < 5; i++ {
			gate <- struct{}{}
		}
		victim := NewCampaignManager(New(Options{Workers: 2, CacheDir: dir,
			Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
				<-gate
				return stubResult(cfg, b, n, s)
			})}), CampaignManagerOptions{Dir: filepath.Join(dir, "campaigns")})
		run, err := victim.Start(spec)
		if err != nil {
			t.Fatal(err)
		}
		for run.Status().Completed < 3 {
			time.Sleep(time.Millisecond)
		}
		victim.Cancel(run.ID())
		for i := 0; i < total; i++ {
			gate <- struct{}{}
		}
		if st := waitCampaign(t, run); st.State != CampaignCancelled || st.Completed == total {
			t.Fatalf("victim run %+v, want cancelled mid-campaign", st)
		}

		e := New(Options{Workers: 2, CacheDir: dir})
		mgr := NewCampaignManager(e, CampaignManagerOptions{Dir: filepath.Join(dir, "campaigns")})
		if _, resumed, err := mgr.Replay(); err != nil || resumed != 1 {
			t.Fatalf("replay resumed %d campaigns (err %v), want 1", resumed, err)
		}
		resumedRun, _ := mgr.Get(run.ID())
		if st := waitCampaign(t, resumedRun); st.State != CampaignDone || st.Completed != total {
			t.Fatalf("resumed run %+v, want done", st)
		}
		if s := e.Stats(); s.TraceMisses == 0 || s.TraceRecords != 0 {
			t.Fatalf("resumed campaign: trace misses=%d records=%d, want some misses and no records left", s.TraceMisses, s.TraceRecords)
		}
	})
}

// TestSchedulerQueueGauges checks the Running/QueueDepth scheduler
// gauges: with one worker and several distinct points in flight, exactly
// one simulation runs while the rest queue, and both gauges drain to
// zero when the work completes.
func TestSchedulerQueueGauges(t *testing.T) {
	const points = 4
	release := make(chan struct{})
	started := make(chan struct{}, points)
	e := New(Options{Workers: 1, Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		started <- struct{}{}
		<-release
		return stubResult(cfg, b, n, s)
	})})
	cfg := config.MALEC()

	var wg sync.WaitGroup
	for i := 0; i < points; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runPoint(t, e, cfg, "gzip", 1000, uint64(i+1))
		}(i)
	}
	<-started // one simulation holds the single worker slot
	for e.Stats().QueueDepth < points-1 {
		runtime.Gosched()
	}
	if s := e.Stats(); s.Running != 1 || s.QueueDepth != points-1 {
		t.Fatalf("stats = %+v; want running 1, queueDepth %d", s, points-1)
	}
	close(release)
	wg.Wait()
	if s := e.Stats(); s.Running != 0 || s.QueueDepth != 0 {
		t.Fatalf("after drain stats = %+v; want zero gauges", s)
	}
	if s := e.Stats(); s.Simulations != points {
		t.Fatalf("simulations = %d, want %d", s.Simulations, points)
	}
}
