package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/trace"
)

// plain adapts a simulate stub that ignores cancellation to
// engine.SimulateFunc (nil: the real simulator).
func plain(sim func(cfg config.Config, b string, n int, s uint64) cpu.Result) engine.SimulateFunc {
	if sim == nil {
		return nil
	}
	return func(_ context.Context, cfg config.Config, b string, n int, s uint64) (cpu.Result, error) {
		return sim(cfg, b, n, s), nil
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

func TestSweepJSONAndCSV(t *testing.T) {
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		return cpu.Result{Config: cfg.Name, Benchmark: b, Cycles: 100 + s, Instructions: uint64(n)}
	}
	ts, _ := newTestServer(t, sim, Options{})
	body := `{"configs":["Base1ldst","MALEC"],"benchmarks":["gzip","mcf"],"instructions":1000,"seeds":[1,2]}`

	resp, raw := post(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Jobs    int                `json:"jobs"`
		Results []engine.JobResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Jobs != 8 || len(out.Results) != 8 {
		t.Fatalf("sweep returned %d jobs / %d results, want 8", out.Jobs, len(out.Results))
	}
	if out.Results[0].ConfigName != "Base1ldst" || out.Results[0].Benchmark != "gzip" || out.Results[0].Seed != 1 {
		t.Fatalf("unexpected first result %+v", out.Results[0].Job)
	}

	csvBody := `{"configs":["Base1ldst","MALEC"],"benchmarks":["gzip","mcf"],"instructions":1000,"seeds":[1,2],"format":"csv"}`
	resp, raw = post(t, ts.URL+"/v1/sweep", csvBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv sweep status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("csv content type %q", ct)
	}
	rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // header + 8 jobs
		t.Fatalf("csv has %d rows, want 9", len(rows))
	}
	if rows[0][0] != "config" || rows[1][0] != "Base1ldst" {
		t.Fatalf("unexpected csv rows %v / %v", rows[0], rows[1])
	}
}

func TestSweepValidation(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{MaxSweepJobs: 4})
	cases := []struct {
		name, body string
	}{
		{"no configs", `{"benchmarks":["gzip"]}`},
		{"unknown config", `{"configs":["NoSuch"]}`},
		{"unknown benchmark", `{"configs":["MALEC"],"benchmarks":["nope"]}`},
		{"too many jobs", `{"configs":["MALEC"],"benchmarks":["gzip","mcf","art","ammp","gcc"]}`},
		{"bad format", `{"configs":["MALEC"],"benchmarks":["gzip"],"format":"xml"}`},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/v1/sweep", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
	}
}

// TestSweepDefaultInstructionsRespectsLimit guards against the default
// instruction count (300000) sneaking past a lower operator limit when the
// request omits the field.
func TestSweepDefaultInstructionsRespectsLimit(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{MaxInstructions: 100000})
	resp, body := post(t, ts.URL+"/v1/sweep", `{"configs":["MALEC"],"benchmarks":["gzip"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep with omitted instructions under a 100k limit: status %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "300000 exceeds limit 100000") {
		t.Fatalf("error does not name the effective default: %s", body)
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

// TestStatsShapeRegression pins the /v1/stats JSON contract: every
// pre-existing engine field name stays at the top level, and the new
// serving section reports uptime and per-endpoint totals.
func TestStatsShapeRegression(t *testing.T) {
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		return cpu.Result{Config: cfg.Name, Benchmark: b, Cycles: 1}
	}
	ts, _ := newTestServer(t, sim, Options{})
	body := `{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":1}`
	post(t, ts.URL+"/v1/run", body)
	post(t, ts.URL+"/v1/run", body)

	var raw map[string]json.RawMessage
	get(t, ts.URL+"/v1/stats", &raw)
	// The engine fields served before this layer existed must not move.
	for _, legacy := range []string{
		"hits", "diskHits", "dedup", "simulations", "entries",
		"traceHits", "traceMisses", "traceRecords",
	} {
		if _, ok := raw[legacy]; !ok {
			t.Errorf("/v1/stats lost top-level field %q", legacy)
		}
	}
	var hits uint64
	if err := json.Unmarshal(raw["hits"], &hits); err != nil || hits != 1 {
		t.Errorf("hits = %s, want 1", raw["hits"])
	}

	var serving struct {
		UptimeSeconds float64 `json:"uptimeSeconds"`
		Requests      uint64  `json:"requests"`
		Errors        uint64  `json:"errors"`
		Endpoints     map[string]struct {
			Requests uint64 `json:"requests"`
			Errors   uint64 `json:"errors"`
			InFlight int64  `json:"inFlight"`
			Latency  struct {
				Count uint64  `json:"count"`
				P50Ms float64 `json:"p50Ms"`
				P99Ms float64 `json:"p99Ms"`
				MaxMs float64 `json:"maxMs"`
			} `json:"latency"`
		} `json:"endpoints"`
	}
	if raw["serving"] == nil {
		t.Fatalf("/v1/stats has no serving section")
	}
	if err := json.Unmarshal(raw["serving"], &serving); err != nil {
		t.Fatal(err)
	}
	if serving.UptimeSeconds < 0 {
		t.Errorf("uptimeSeconds = %v", serving.UptimeSeconds)
	}
	run, ok := serving.Endpoints["/v1/run"]
	if !ok {
		t.Fatalf("serving.endpoints missing /v1/run: %+v", serving.Endpoints)
	}
	if run.Requests != 2 || run.Errors != 0 || run.Latency.Count != 2 {
		t.Errorf("/v1/run endpoint stats = %+v, want 2 requests / 0 errors", run)
	}
	if serving.Requests < 2 {
		t.Errorf("aggregate requests = %d, want >= 2", serving.Requests)
	}
	// The stats request itself is instrumented too.
	if _, ok := serving.Endpoints["/v1/stats"]; !ok {
		t.Errorf("serving.endpoints missing /v1/stats")
	}
}

// TestCheckpointStatsShapeRegression pins the checkpoint-observability
// contract introduced with sampled simulation: the warmed-checkpoint
// counters appear at the top level of /v1/stats and as counter families
// in the /metrics exposition.
func TestCheckpointStatsShapeRegression(t *testing.T) {
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		return cpu.Result{Config: cfg.Name, Benchmark: b, Cycles: 1}
	}
	ts, _ := newTestServer(t, sim, Options{})

	var raw map[string]json.RawMessage
	get(t, ts.URL+"/v1/stats", &raw)
	for _, field := range []string{
		"checkpointHits", "checkpointMisses",
		"checkpointBytesRead", "checkpointBytesWritten",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("/v1/stats missing top-level field %q", field)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE malec_engine_checkpoint_hits_total counter",
		"malec_engine_checkpoint_hits_total 0",
		"malec_engine_checkpoint_misses_total 0",
		"malec_engine_checkpoint_bytes_read_total 0",
		"malec_engine_checkpoint_bytes_written_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
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

	// The sweep tier applies the schedule to every config; two core-side
	// variants would share warmed checkpoints here, which the engine
	// tests cover — this checks the plumbing end to end.
	resp, body = post(t, ts.URL+"/v1/sweep",
		`{"configs": ["MALEC"], "benchmarks": ["gzip"], "instructions": 40000, "seeds": [2],
		  "sampling": {"Warmup": 200, "Detail": 800, "Interval": 20000}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled sweep: status %d: %s", resp.StatusCode, body)
	}
	var sweep struct {
		Jobs int `json:"jobs"`
	}
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Jobs != 1 {
		t.Fatalf("sampled sweep ran %d jobs, want 1", sweep.Jobs)
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
