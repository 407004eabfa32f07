package server

// Robustness tests for the serving layer: admission control (shedding,
// per-client caps, drain), deadlines, client disconnects, readiness, and
// the HTTP error paths (oversized body, malformed JSON, bad method) with
// their metric side effects.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
)

// newBlockingServer wires a server over a context-aware simulate stub that
// signals entry on entered and blocks until release closes or its context
// is cancelled.
func newBlockingServer(t *testing.T, opts Options, entered chan struct{}, release chan struct{}) (*httptest.Server, *Server, *engine.Engine) {
	t.Helper()
	sim := func(ctx context.Context, jobs []engine.Job) ([]cpu.Result, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return plain(func(cfg config.Config, b string, _ int, _ uint64) cpu.Result {
				return cpu.Result{Config: cfg.Name, Benchmark: b, Cycles: 777}
			})(ctx, jobs)
		}
	}
	eng := engine.New(engine.Options{Workers: 8, Simulate: sim})
	srv := New(eng, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, eng
}

// metricsText scrapes GET /metrics and returns the exposition body.
func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

const runBody = `{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":1}`

func TestOversizedBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{})

	big := `{"config":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	resp, raw := post(t, ts.URL+"/v1/run", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", resp.StatusCode, raw)
	}

	// The rejection shows up in the per-endpoint 4xx counter.
	m := metricsText(t, ts.URL)
	want := `malecd_http_requests_total{endpoint="/v1/run",code="4xx"} 1`
	if !strings.Contains(m, want) {
		t.Fatalf("/metrics missing %q after oversized body", want)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, nil, Options{})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
}

func TestClientDisconnectCancelsSimulation(t *testing.T) {
	entered := make(chan struct{}, 1)
	ts, _, eng := newBlockingServer(t, Options{}, entered, nil)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run",
		strings.NewReader(runBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait for the simulation to start, then hang up.
	<-entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request succeeded despite client disconnect")
	}

	// The disconnect propagates into the engine: the detached job observes
	// the cancellation and the counter moves.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("engine Cancelled counter never moved after client disconnect")
		}
		runtime.Gosched()
	}
}

func TestDeadlineMsTimesOut(t *testing.T) {
	entered := make(chan struct{}, 1)
	ts, _, _ := newBlockingServer(t, Options{}, entered, nil)

	body := `{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":1,"deadline_ms":50}`
	resp, raw := post(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, raw)
	}
	m := metricsText(t, ts.URL)
	if !strings.Contains(m, "malecd_timeouts_total 1") {
		t.Fatal("/metrics missing malecd_timeouts_total 1 after deadline")
	}
}

func TestServerRequestTimeout(t *testing.T) {
	entered := make(chan struct{}, 1)
	ts, _, _ := newBlockingServer(t, Options{RequestTimeout: 50 * time.Millisecond}, entered, nil)
	resp, raw := post(t, ts.URL+"/v1/run", runBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, raw)
	}
}

// TestHugeDeadlineMsKeepsServerTimeout pins deadline_ms as tighten-only
// at any magnitude: a value whose product with time.Millisecond overflows
// must not wrap negative and switch the server's RequestTimeout off.
func TestHugeDeadlineMsKeepsServerTimeout(t *testing.T) {
	entered := make(chan struct{}, 1)
	ts, _, _ := newBlockingServer(t, Options{RequestTimeout: 50 * time.Millisecond}, entered, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	body := `{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":1,"deadline_ms":10000000000000}`
	resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("no reply within 5s under a 50ms server timeout: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, raw)
	}
}

func TestQueueFullShedsWithRetryAfter(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	// One slot, no queue: the second concurrent request sheds immediately.
	ts, _, _ := newBlockingServer(t, Options{MaxConcurrent: 1, MaxQueueDepth: -1},
		entered, release)

	first := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/run", runBody)
		first <- resp.StatusCode
	}()
	<-entered

	resp, raw := post(t, ts.URL+"/v1/run",
		`{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d (%s), want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("admitted request status = %d, want 200", code)
	}
	m := metricsText(t, ts.URL)
	if !strings.Contains(m, `malecd_shed_total{reason="queue_full"} 1`) {
		t.Fatal("/metrics missing queue_full shed counter")
	}
}

func TestQueueWaitShedsWhenSlotNeverFrees(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ts, _, _ := newBlockingServer(t,
		Options{MaxConcurrent: 1, MaxQueueDepth: 4, MaxQueueWait: 50 * time.Millisecond},
		entered, release)
	defer close(release)

	first := make(chan struct{})
	go func() {
		post(t, ts.URL+"/v1/run", runBody)
		close(first)
	}()
	<-entered

	resp, raw := post(t, ts.URL+"/v1/run",
		`{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued-too-long status = %d (%s), want 429", resp.StatusCode, raw)
	}
	m := metricsText(t, ts.URL)
	if !strings.Contains(m, `malecd_shed_total{reason="queue_wait"} 1`) {
		t.Fatal("/metrics missing queue_wait shed counter")
	}
}

func TestPerClientConcurrencyCap(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ts, _, _ := newBlockingServer(t, Options{PerClientConcurrency: 1}, entered, release)
	defer close(release)

	do := func(apiKey, body string) (*http.Response, error) {
		req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", apiKey)
		return http.DefaultClient.Do(req)
	}

	started := make(chan struct{})
	go func() {
		close(started)
		resp, err := do("alice", runBody)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	<-entered

	// Same key: over the cap, shed. Different key: admitted (and since the
	// point is distinct it blocks, so use a short client-side deadline and
	// only check it was not rejected with 429).
	resp, err := do("alice", `{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":9}`)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-key status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("per-client shed missing Retry-After")
	}

	otherDone := make(chan int, 1)
	go func() {
		resp, err := do("bob", `{"config":"MALEC","benchmark":"gzip","instructions":1000,"seed":8}`)
		if err != nil {
			otherDone <- -1
			return
		}
		resp.Body.Close()
		otherDone <- resp.StatusCode
	}()
	select {
	case code := <-otherDone:
		// Only possible once release closes below — but never a shed.
		if code == http.StatusTooManyRequests {
			t.Fatal("distinct client shed by another client's cap")
		}
	case <-time.After(100 * time.Millisecond):
		// Still blocked in the simulator: admitted past the per-client gate.
	}
}

func TestDrainingShedsAndReadyzFails(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ts2, srv2, _ := newBlockingServer(t, Options{}, entered, release)
	defer close(release)
	_ = entered

	// Before drain: ready.
	resp := get(t, ts2.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", resp.StatusCode)
	}

	srv2.StartDraining()

	resp = get(t, ts2.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", resp.StatusCode)
	}
	resp = get(t, ts2.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness stays green)", resp.StatusCode)
	}

	r2, raw := post(t, ts2.URL+"/v1/run", runBody)
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/run during drain = %d (%s), want 503", r2.StatusCode, raw)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed missing Retry-After")
	}
	m := metricsText(t, ts2.URL)
	if !strings.Contains(m, `malecd_shed_total{reason="draining"} 1`) {
		t.Fatal("/metrics missing draining shed counter")
	}
}

func TestNotReadyBeforeInit(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, Simulate: plain(func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		return cpu.Result{}
	})})
	srv := New(eng, Options{})
	srv.SetReady(false)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before ready = %d, want 503", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("starting")) {
		t.Fatalf("/readyz body = %s, want starting", rec.Body.String())
	}
}

func TestSimPanicReturns500NotCrash(t *testing.T) {
	var calls atomic.Int64
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		calls.Add(1)
		panic("boom")
	}
	ts, eng := newTestServer(t, sim, Options{})

	resp, raw := post(t, ts.URL+"/v1/run", runBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("panic")) {
		t.Fatalf("body = %s, want structured panic error", raw)
	}
	// The key is quarantined: the repeat fails fast without re-running.
	resp, _ = post(t, ts.URL+"/v1/run", runBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("repeat status = %d, want 500", resp.StatusCode)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("panicking simulate ran %d times, want 1", n)
	}
	if st := eng.Stats(); st.Panics != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = {Panics:%d Quarantined:%d}, want {1 1}", st.Panics, st.Quarantined)
	}
	m := metricsText(t, ts.URL)
	if !strings.Contains(m, "malec_engine_panics_total 1") {
		t.Fatal("/metrics missing malec_engine_panics_total 1")
	}
}
