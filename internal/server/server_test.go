package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/trace"
)

// plain adapts a per-point simulate stub that ignores cancellation to
// engine.SimulateFunc, running it on each job of the unit in turn (nil:
// the real simulator).
func plain(sim func(cfg config.Config, b string, n int, s uint64) cpu.Result) engine.SimulateFunc {
	if sim == nil {
		return nil
	}
	return func(_ context.Context, jobs []engine.Job) ([]cpu.Result, error) {
		res := make([]cpu.Result, len(jobs))
		for i, j := range jobs {
			res[i] = sim(j.Config, j.Benchmark, j.Instructions, j.Seed)
		}
		return res, nil
	}
}

// newTestServer wires a server over an engine with the given simulate stub
// (nil: the real simulator).
func newTestServer(t *testing.T, sim func(cfg config.Config, b string, n int, s uint64) cpu.Result, opts Options) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 8, Simulate: plain(sim)})
	ts := httptest.NewServer(New(eng, opts))
	t.Cleanup(ts.Close)
	return ts, eng
}

// get fetches a URL and decodes the JSON response into v.
func get(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// post sends a JSON body and returns the response with its raw payload.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthzAndListings(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{})

	var health map[string]string
	if resp := get(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	var cfgs struct {
		Configs []string `json:"configs"`
	}
	get(t, ts.URL+"/v1/configs", &cfgs)
	if len(cfgs.Configs) != len(config.Names()) {
		t.Fatalf("/v1/configs returned %d names, want %d", len(cfgs.Configs), len(config.Names()))
	}

	var benches struct {
		Benchmarks []struct {
			Name  string `json:"name"`
			Suite string `json:"suite"`
		} `json:"benchmarks"`
	}
	get(t, ts.URL+"/v1/benchmarks", &benches)
	if len(benches.Benchmarks) != len(trace.AllBenchmarks()) {
		t.Fatalf("/v1/benchmarks returned %d entries, want %d",
			len(benches.Benchmarks), len(trace.AllBenchmarks()))
	}
	if benches.Benchmarks[0].Suite == "" {
		t.Fatalf("benchmark entries missing suite: %+v", benches.Benchmarks[0])
	}
}

func TestRunValidation(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{MaxInstructions: 1000})
	cases := []struct {
		name, body string
	}{
		{"unknown config", `{"config":"NoSuch","benchmark":"gzip"}`},
		{"unknown benchmark", `{"config":"MALEC","benchmark":"nope"}`},
		{"over instruction limit", `{"config":"MALEC","benchmark":"gzip","instructions":2000}`},
		{"unknown field", `{"config":"MALEC","benchmark":"gzip","instrs":10}`},
		{"malformed", `{"config":`},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/v1/run", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: no error envelope in %s", c.name, body)
		}
	}
	if resp, _ := post(t, ts.URL+"/healthz", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz status %d, want 405", resp.StatusCode)
	}
}

func TestConcurrentDuplicateRunsSimulateOnce(t *testing.T) {
	const clients = 8
	var calls atomic.Int64
	release := make(chan struct{})
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		<-release
		return cpu.Result{Config: cfg.Name, Benchmark: b, Cycles: 12345}
	}
	ts, eng := newTestServer(t, sim, Options{})

	body := `{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":3}`
	var wg sync.WaitGroup
	responses := make([]runResponse, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := post(t, ts.URL+"/v1/run", body)
			codes[i] = resp.StatusCode
			json.Unmarshal(raw, &responses[i]) //nolint:errcheck // checked via Cycles below
		}(i)
	}
	// Let every request attach to the single in-flight simulation before
	// releasing it: 1 leader simulating, clients-1 deduplicated.
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	for eng.Stats().Dedup < clients-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("simulate ran %d times for %d identical requests, want 1", n, clients)
	}
	var cached int
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		var res cpu.Result
		data, _ := json.Marshal(responses[i].Result)
		json.Unmarshal(data, &res) //nolint:errcheck // zero Cycles fails below
		if res.Cycles != 12345 {
			t.Fatalf("request %d: wrong result %v", i, responses[i].Result)
		}
		if responses[i].Cached {
			cached++
		}
	}
	if cached != clients-1 {
		t.Fatalf("%d responses marked cached, want %d", cached, clients-1)
	}

	// A later identical request is a memory hit.
	_, raw := post(t, ts.URL+"/v1/run", body)
	var again runResponse
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if again.Source != engine.SourceMemory || !again.Cached {
		t.Fatalf("repeat request source = %q cached=%v, want memory/true", again.Source, again.Cached)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("repeat request re-simulated (%d calls)", n)
	}
}

func TestDistinctPointsRunConcurrently(t *testing.T) {
	var calls atomic.Int64
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		return cpu.Result{Config: cfg.Name, Benchmark: b, Cycles: s}
	}
	ts, _ := newTestServer(t, sim, Options{})

	const clients = 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":%d}`, i+1)
			resp, raw := post(t, ts.URL+"/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d", i+1, resp.StatusCode)
				return
			}
			var rr runResponse
			if err := json.Unmarshal(raw, &rr); err != nil {
				t.Errorf("seed %d: %v", i+1, err)
				return
			}
			if rr.Key.Seed != uint64(i+1) {
				t.Errorf("seed %d: response key %v", i+1, rr.Key)
			}
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != clients {
		t.Fatalf("simulate ran %d times for %d distinct points", n, clients)
	}
}

// TestRealSimulationThroughService exercises the full stack once: HTTP ->
// engine -> cycle simulator, then asserts the repeat is served from cache.
func TestRealSimulationThroughService(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ts, eng := newTestServer(t, nil, Options{})
	body := `{"config":"MALEC","benchmark":"gzip","instructions":20000}`

	_, raw := post(t, ts.URL+"/v1/run", body)
	var first runResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Source != engine.SourceSimulated {
		t.Fatalf("first run source = %q cached=%v", first.Source, first.Cached)
	}
	data, _ := json.Marshal(first.Result)
	var res cpu.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("implausible simulation result: %+v", res)
	}

	_, raw = post(t, ts.URL+"/v1/run", body)
	var second runResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("repeat run not cached: %+v", second.Source)
	}
	s := eng.Stats()
	if s.Simulations != 1 || s.Hits != 1 {
		t.Fatalf("engine stats %+v, want 1 simulation + 1 hit", s)
	}
}

// TestMetricsEndpoint drives a few requests through the service and
// asserts the /metrics exposition carries per-endpoint latency
// histograms, status-class counters and the engine's cache/dedup/trace
// counters — the acceptance shape every scraper depends on.
func TestMetricsEndpoint(t *testing.T) {
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		return cpu.Result{Config: cfg.Name, Benchmark: b, Cycles: 1}
	}
	ts, _ := newTestServer(t, sim, Options{})

	body := `{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":1}`
	post(t, ts.URL+"/v1/run", body)                                     // simulated
	post(t, ts.URL+"/v1/run", body)                                     // memory hit
	post(t, ts.URL+"/v1/run", `{"config":"NoSuch","benchmark":"gzip"}`) // 400

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, want := range []string{
		`malecd_http_requests_total{endpoint="/v1/run",code="2xx"} 2`,
		`malecd_http_requests_total{endpoint="/v1/run",code="4xx"} 1`,
		`malecd_http_request_seconds_bucket{endpoint="/v1/run",le="+Inf"} 3`,
		`malecd_http_request_seconds_count{endpoint="/v1/run"} 3`,
		`malecd_http_in_flight{endpoint="/v1/run"} 0`,
		"# TYPE malecd_http_request_seconds histogram",
		"malec_engine_cache_hits_total 1",
		"malec_engine_simulations_total 1",
		"malec_engine_dedup_total 0",
		"malec_engine_queue_depth 0",
		"malec_engine_running 0",
		"malecd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// statsFamilies maps every exported field of engine.Stats and
// engine.CampaignManagerStats to the /metrics family that exports it.
// /metrics is the only stats surface, so a field added to either struct
// without a series here fails TestMetricsCoverEngineStats. The three
// Stats.Checkpoint* fields map to "": the engine keeps no checkpoint
// store, so they are always zero and have no series.
var statsFamilies = map[string]string{
	"Stats.Hits":                   "malec_engine_cache_hits_total",
	"Stats.DiskHits":               "malec_engine_disk_hits_total",
	"Stats.Dedup":                  "malec_engine_dedup_total",
	"Stats.Simulations":            "malec_engine_simulations_total",
	"Stats.Entries":                "malec_engine_cache_entries",
	"Stats.TraceHits":              "malec_engine_trace_hits_total",
	"Stats.TraceMisses":            "malec_engine_trace_misses_total",
	"Stats.TraceRecords":           "malec_engine_trace_records",
	"Stats.QueueDepth":             "malec_engine_queue_depth",
	"Stats.Running":                "malec_engine_running",
	"Stats.CheckpointHits":         "",
	"Stats.CheckpointMisses":       "",
	"Stats.CheckpointBytesWritten": "",
	"Stats.Cancelled":              "malec_engine_cancelled_total",
	"Stats.Panics":                 "malec_engine_panics_total",
	"Stats.Quarantined":            "malec_engine_quarantined_total",
	"Stats.PoisonedKeys":           "malec_engine_poisoned_keys",
	"Stats.CorruptPruned":          "malec_engine_corrupt_pruned_total",

	"CampaignManagerStats.Active":         "malec_campaigns_active",
	"CampaignManagerStats.Campaigns":      "malec_campaigns_known",
	"CampaignManagerStats.Retries":        "malec_campaign_retries_total",
	"CampaignManagerStats.FailedPoints":   "malec_campaign_failed_points_total",
	"CampaignManagerStats.ReplayedPoints": "malec_campaign_replayed_points_total",
	"CampaignManagerStats.JournalTorn":    "malec_campaign_journal_torn_total",
	"CampaignManagerStats.JournalsPruned": "malec_campaign_journals_pruned_total",
}

// metricValue returns the value of the unlabelled sample of family in a
// /metrics exposition.
func metricValue(text, family string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, family+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestMetricsCoverEngineStats walks the exported fields of engine.Stats
// and engine.CampaignManagerStats by reflection and checks that each has
// a /metrics series carrying its value, so no engine counter can be added
// without an exposition. A field statsFamilies maps to "" must read 0.
func TestMetricsCoverEngineStats(t *testing.T) {
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		return cpu.Result{Config: cfg.Name, Benchmark: b, Cycles: 1}
	}
	eng := engine.New(engine.Options{Workers: 2, Simulate: plain(sim)})
	srv := New(eng, Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	post(t, ts.URL+"/v1/run", runBody) // simulated
	post(t, ts.URL+"/v1/run", runBody) // memory hit

	text := metricsText(t, ts.URL)
	for _, st := range []any{eng.Stats(), srv.camps.Stats()} {
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			field := v.Type().Name() + "." + f.Name
			family, ok := statsFamilies[field]
			if !ok {
				t.Errorf("%s has no /metrics family in statsFamilies", field)
				continue
			}
			var want float64
			if fv := v.Field(i); fv.CanUint() {
				want = float64(fv.Uint())
			} else {
				want = float64(fv.Int())
			}
			if family == "" {
				if want != 0 {
					t.Errorf("%s = %v, want 0: a field without a series must stay zero", field, want)
				}
				continue
			}
			got, ok := metricValue(text, family)
			if !ok {
				t.Errorf("%s: /metrics has no %s sample", field, family)
				continue
			}
			if got != want {
				t.Errorf("%s: %s = %v, want %v", field, family, got, want)
			}
		}
	}
	if got, _ := metricValue(text, "malec_engine_cache_hits_total"); got != 1 {
		t.Errorf("malec_engine_cache_hits_total = %v after one memory hit, want 1", got)
	}
	if _, ok := metricValue(text, "malecd_uptime_seconds"); !ok {
		t.Error("/metrics has no malecd_uptime_seconds sample")
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// TestStatsRouteGone checks that /metrics is the only stats surface: the
// JSON stats route answers 404 and leaves no per-endpoint series.
func TestStatsRouteGone(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{})
	resp := get(t, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats = %d, want 404", resp.StatusCode)
	}
	if text := metricsText(t, ts.URL); strings.Contains(text, `endpoint="/v1/stats"`) {
		t.Fatalf("/metrics has a /v1/stats series:\n%s", text)
	}
}

// TestRunSamplingTier drives the sampled quality tier end to end through
// the HTTP API: a /v1/run with a sampling schedule must run the real
// sampled simulator, return the estimate metadata, cache under a key
// distinct from the exact run, and reject malformed schedules.
func TestRunSamplingTier(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{})

	exactBody := `{"config": "MALEC", "benchmark": "gzip", "instructions": 40000, "seed": 2}`
	sampledBody := `{"config": "MALEC", "benchmark": "gzip", "instructions": 40000, "seed": 2,
		"sampling": {"Warmup": 200, "Detail": 800, "Interval": 20000}}`

	var exact, sampled struct {
		Key      engine.Key            `json:"key"`
		Sampling *cpu.SamplingEstimate `json:"sampling"`
	}
	resp, body := post(t, ts.URL+"/v1/run", exactBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact run: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Sampling != nil {
		t.Fatalf("exact run returned a sampling estimate: %+v", exact.Sampling)
	}

	resp, body = post(t, ts.URL+"/v1/run", sampledBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled run: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sampled); err != nil {
		t.Fatal(err)
	}
	if sampled.Sampling == nil {
		t.Fatalf("sampled run returned no estimate: %s", body)
	}
	if sampled.Sampling.Windows != 2 {
		t.Errorf("estimate windows = %d, want 2", sampled.Sampling.Windows)
	}
	if sampled.Key == exact.Key {
		t.Error("sampled and exact runs share a cache key")
	}

	resp, body = post(t, ts.URL+"/v1/run",
		`{"config": "MALEC", "benchmark": "gzip", "instructions": 40000,
		  "sampling": {"Warmup": 900, "Detail": 200, "Interval": 1000}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid schedule: status %d, want 400: %s", resp.StatusCode, body)
	}

	// A sampled campaign applies the schedule to every config and runs
	// the same point as the sampled /v1/run: its export carries that
	// run's key. Core-side variants of one memory side would run as one
	// pass here, which the engine tests cover; this checks the plumbing
	// end to end.
	resp, body = post(t, ts.URL+"/v1/campaigns",
		`{"configs": ["MALEC"], "benchmarks": ["gzip"], "instructions": 40000, "seeds": [2],
		  "sampling": {"Warmup": 200, "Detail": 800, "Interval": 20000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sampled campaign: status %d: %s", resp.StatusCode, body)
	}
	var st engine.CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if _, _, done := readStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/results"); done.State != string(engine.CampaignDone) {
		t.Fatalf("sampled campaign ended %+v", done)
	}
	var exp struct {
		Results []struct {
			Key engine.Key `json:"key"`
		} `json:"results"`
	}
	if resp := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/results?format=json", &exp); resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled campaign export: status %d", resp.StatusCode)
	}
	if len(exp.Results) != 1 || exp.Results[0].Key != sampled.Key {
		t.Fatalf("sampled campaign exported %+v, want the one key %v", exp.Results, sampled.Key)
	}
}

// TestRunSamplingUnknownInterval checks that a sampled point with one
// measurement window reports its interval as unknown, leaving both
// half-widths out of the sampling block, while a two-window point keeps
// them.
func TestRunSamplingUnknownInterval(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{})
	for _, c := range []struct {
		instructions, interval, windows int
	}{{150000, 100000, 1}, {40000, 20000, 2}} {
		resp, body := post(t, ts.URL+"/v1/run", fmt.Sprintf(
			`{"config": "MALEC", "benchmark": "gzip", "instructions": %d,
			  "sampling": {"Warmup": 200, "Detail": 800, "Interval": %d}}`, c.instructions, c.interval))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out struct {
			Sampling map[string]json.RawMessage `json:"sampling"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if got := string(out.Sampling["Windows"]); got != fmt.Sprint(c.windows) {
			t.Fatalf("Windows = %s, want %d: %s", got, c.windows, body)
		}
		for _, f := range []string{"CPIRelHalfWidth", "EnergyRelHalfWidth"} {
			if _, ok := out.Sampling[f]; ok != (c.windows >= 2) {
				t.Errorf("%d windows: %s present = %v, want %v: %s", c.windows, f, ok, c.windows >= 2, body)
			}
		}
	}
}
