// Package server implements the malecd HTTP API: a thin JSON layer over
// the campaign engine. Every request runs against one shared engine, so
// concurrent clients asking for the same simulation point share a single
// simulation (singleflight) and repeated requests are cache hits.
//
// Endpoints:
//
//	GET  /healthz        liveness probe
//	GET  /readyz         readiness probe (503 before start-up and while draining)
//	GET  /metrics        Prometheus text exposition, the only stats surface:
//	                     per-endpoint counters and latency histograms,
//	                     every engine and campaign counter, uptime
//	GET  /v1/configs     preset configuration names
//	GET  /v1/benchmarks  benchmark workloads with their suites
//	POST /v1/run         one simulation point
//
// A config x benchmark x seed grid runs as a durable campaign under
// /v1/campaigns (campaigns.go).
//
// Every route is instrumented by middleware (metrics.go): request
// counters by status class, an in-flight gauge and a latency histogram
// per endpoint, all allocation-free on the request path.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/metrics"
	"malec/internal/stats"
	"malec/internal/trace"
)

// Version identifies this build in malec_build_info and logs.
const Version = "0.10.0"

// Options bounds what the service accepts. The zero value is usable.
type Options struct {
	// MaxInstructions caps the instruction count of a single simulation
	// point (default 5e6). Simulation time is linear in instructions;
	// the cap keeps one request from monopolizing workers.
	MaxInstructions int
	// RequestTimeout bounds the server-side processing time of /v1/run
	// requests and campaign exports; past it the simulation is cancelled
	// and the client gets 504. A run's own deadline_ms tightens it
	// further, never loosens it. Zero disables.
	RequestTimeout time.Duration
	// MaxConcurrent bounds how many simulation-bearing requests are
	// admitted at once; excess requests queue (see MaxQueueDepth) and are
	// shed with 429 + Retry-After past the bounds. Zero disables the gate
	// and its queue.
	MaxConcurrent int
	// MaxQueueDepth bounds admitted-queue waiters beyond MaxConcurrent
	// (default 64 when the gate is on; negative means shed immediately
	// when the gate is full).
	MaxQueueDepth int
	// MaxQueueWait bounds how long a queued request waits for the gate
	// before being shed (default 5s when the gate is on).
	MaxQueueWait time.Duration
	// PerClientConcurrency caps concurrent simulation-bearing requests
	// per client (X-API-Key header, else remote address), so one client's
	// burst cannot starve everyone else's interactive traffic. Zero
	// disables.
	PerClientConcurrency int
	// Campaigns serves the durable-campaign routes (/v1/campaigns). Nil
	// creates an in-memory manager over the engine: asynchronous and
	// streamable, but not crash-durable (malecd wires a journaled one).
	Campaigns *engine.CampaignManager
}

// normalize applies option defaults.
func (o Options) normalize() Options {
	if o.MaxInstructions <= 0 {
		o.MaxInstructions = 5_000_000
	}
	if o.MaxConcurrent > 0 {
		if o.MaxQueueDepth == 0 {
			o.MaxQueueDepth = 64
		}
		if o.MaxQueueWait <= 0 {
			o.MaxQueueWait = 5 * time.Second
		}
	}
	return o
}

// Server is the malecd HTTP handler.
type Server struct {
	eng   *engine.Engine
	opts  Options
	camps *engine.CampaignManager
	mux   *http.ServeMux
	reg   *metrics.Registry
	start time.Time
	adm   *admission
	// ready and draining drive /readyz: not-ready before initialization
	// completes, draining once shutdown has begun. Liveness (/healthz)
	// stays green through both.
	ready    atomic.Bool
	draining atomic.Bool
	// timeouts counts simulation-bearing requests that hit their deadline
	// (malecd_timeouts_total).
	timeouts *metrics.Counter
	// endpoints holds each route's instruments, shared by every method
	// registered on that route.
	endpoints map[string]*endpointMetrics
	// hits memoizes /v1/run response bodies of resident results.
	hits hitMemo
	// heartbeat is the idle interval after which a campaign results
	// stream emits a heartbeat line, keeping intermediaries from timing
	// out a quiet long-poll.
	heartbeat time.Duration
}

// New returns a handler serving the malecd API on eng.
func New(eng *engine.Engine, opts Options) *Server {
	s := &Server{
		eng:   eng,
		opts:  opts.normalize(),
		mux:   http.NewServeMux(),
		reg:   metrics.NewRegistry(),
		start: time.Now(),
		hits:  hitMemo{bodies: make(map[engine.Key]memoBody)},

		endpoints: make(map[string]*endpointMetrics),

		heartbeat: 10 * time.Second,
	}
	s.camps = s.opts.Campaigns
	if s.camps == nil {
		s.camps = engine.NewCampaignManager(eng, engine.CampaignManagerOptions{})
	}
	s.adm = newAdmission(s.opts, s.reg)
	s.timeouts = s.reg.Counter("malecd_timeouts_total",
		"Simulation-bearing requests cancelled at their deadline.")
	s.handle("GET", "/healthz", s.handleHealthz)
	s.handle("GET", "/readyz", s.handleReadyz)
	s.handle("GET", "/metrics", s.handleMetrics)
	s.handle("GET", "/v1/configs", s.handleConfigs)
	s.handle("GET", "/v1/benchmarks", s.handleBenchmarks)
	s.handle("POST", "/v1/run", s.handleRun)
	s.handle("POST", "/v1/campaigns", s.handleCampaignCreate)
	s.handle("GET", "/v1/campaigns", s.handleCampaignList)
	s.handle("GET", "/v1/campaigns/{id}", s.handleCampaignStatus)
	s.handle("GET", "/v1/campaigns/{id}/results", s.handleCampaignResults)
	s.handle("DELETE", "/v1/campaigns/{id}", s.handleCampaignCancel)
	s.registerEngineMetrics()
	s.registerCampaignMetrics()
	metrics.RegisterBuildInfo(s.reg, Version)
	metrics.RegisterRuntime(s.reg)
	// The handler is fully wired over a constructed engine; readiness
	// from here on is a question of drain state.
	s.ready.Store(true)
	return s
}

// SetReady overrides the readiness state (embedding servers that finish
// initialization after New).
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// StartDraining flips the server into drain mode: /readyz starts failing
// so load balancers stop routing here, and new simulation-bearing
// requests are rejected with 503 while in-flight ones finish.
func (s *Server) StartDraining() { s.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeJSON(w, v) //nolint:errcheck // headers sent; nothing left to report
}

// encodeJSON writes v in the response encoding: compact JSON with a
// trailing newline. Compact keeps a memory hit's body, which sets how many
// bytes a hit allocates end to end, a third smaller than indented JSON.
func encodeJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds request bodies: far above any legitimate run or
// campaign spec, far below anything that could pressure memory.
const maxBodyBytes = 1 << 20

// maxPooledBody caps the buffer a requestBody takes back to the pool. Run
// bodies are a few hundred bytes; the storage of a larger one is
// left to the collector rather than kept for every later request.
const maxPooledBody = 8 << 10

// requestBody is pooled storage for reading one request body: the bytes,
// the reader that bounds them, and the /v1/run request decoded in place.
type requestBody struct {
	buf bytes.Buffer
	lim io.LimitedReader
	run runRequest
}

var requestBodies = sync.Pool{New: func() any { return new(requestBody) }}

// getRequestBody takes empty body storage from the pool.
func getRequestBody() *requestBody { return requestBodies.Get().(*requestBody) }

// release empties b and returns it to the pool, unless its buffer grew
// past maxPooledBody. Nothing decoded into b may be used afterwards.
func (b *requestBody) release() {
	if b.buf.Cap() > maxPooledBody {
		return
	}
	b.buf.Reset()
	b.lim = io.LimitedReader{}
	b.run = runRequest{}
	requestBodies.Put(b)
}

// decode reads r's body into b and decodes it into v, rejecting unknown
// fields so client typos fail loudly instead of silently running defaults.
// A body over maxBodyBytes is a 413 and closes the connection, since the
// rest of it is never read.
func (b *requestBody) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	b.lim = io.LimitedReader{R: r.Body, N: maxBodyBytes + 1}
	if _, err := b.buf.ReadFrom(&b.lim); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	if b.buf.Len() > maxBodyBytes {
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
		return false
	}
	dec := json.NewDecoder(&b.buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %s", bodyError(err))
		return false
	}
	return true
}

// bodyError words an error decoding a request body. A type error names
// the body's key path and the JSON kinds involved, not the Go structs the
// body decodes into, so run and campaign bodies read alike.
func bodyError(err error) string {
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return err.Error()
	}
	what := "the body"
	if te.Field != "" {
		what = fmt.Sprintf("field %q", te.Field)
	}
	return fmt.Sprintf("%s must be %s, not %s", what, jsonKind(te.Type), valueKind(te.Value))
}

// jsonKind names the JSON a Go type decodes from. Integers say so, since
// a number that is fractional or out of range is a type error too.
func jsonKind(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return "an integer"
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "a non-negative integer"
	case reflect.Float32, reflect.Float64:
		return "a number"
	case reflect.String:
		return "a string"
	case reflect.Bool:
		return "a boolean"
	case reflect.Slice, reflect.Array:
		return "an array"
	}
	return "an object"
}

// valueKind names the JSON value of a type error: its kind, or the
// literal of a number that does not fit.
func valueKind(v string) string {
	if lit, ok := strings.CutPrefix(v, "number "); ok {
		return lit
	}
	switch v {
	case "bool":
		return "a boolean"
	case "array", "object":
		return "an " + v
	}
	return "a " + v
}

// readBody decodes r's body into v through pooled storage (see
// requestBody.decode).
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	b := getRequestBody()
	defer b.release()
	return b.decode(w, r, v)
}

// handleHealthz implements GET /healthz: pure liveness, green as long as
// the process serves HTTP — including during drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz implements GET /readyz: readiness for traffic. It fails
// before initialization completes and during drain, so orchestrators and
// the CI drain check can distinguish "alive" from "routable".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// requestContext derives the simulation context for one request: the
// client's request context (cancelled on disconnect) bounded by the
// server's RequestTimeout and the request's own deadline_ms, whichever is
// sooner.
func (s *Server) requestContext(r *http.Request, deadlineMs int) (context.Context, context.CancelFunc) {
	d := s.opts.RequestTimeout
	if deadlineMs > 0 {
		// Clamped before scaling: an overflowing product would wrap
		// negative and switch the server timeout off.
		rd := time.Duration(min(int64(deadlineMs), math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
		if d == 0 || rd < d {
			d = rd
		}
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// writeSimError maps a simulation-path error to its response: deadline →
// 504 (counted in malecd_timeouts_total), client disconnect → 499,
// contained panic or anything else → 500.
func (s *Server) writeSimError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, "client closed request")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleConfigs implements GET /v1/configs.
func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"configs": config.Names()})
}

// benchmarkInfo is one /v1/benchmarks entry.
type benchmarkInfo struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
}

// handleBenchmarks implements GET /v1/benchmarks.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var list []benchmarkInfo
	for _, name := range trace.AllBenchmarks() {
		list = append(list, benchmarkInfo{Name: name, Suite: trace.Profiles[name].Suite})
	}
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": list})
}

// runRequest is the POST /v1/run body. Seed is a pointer so an explicit 0
// is distinguishable from an omitted field: seed 0 is a valid workload
// instance, and a campaign's seeds list runs it as given too.
type runRequest struct {
	Config       string  `json:"config"`
	Benchmark    string  `json:"benchmark"`
	Instructions int     `json:"instructions"`
	Seed         *uint64 `json:"seed"`
	// DeadlineMs, when positive, bounds this request's processing time in
	// milliseconds; it can only tighten the server's -request-timeout.
	// Past the deadline the simulation is cancelled and the reply is 504.
	// A result already resident in memory is served without a deadline.
	DeadlineMs int `json:"deadline_ms"`
	// Sampling, when present, switches the run to the sampled fast path
	// (SMARTS-style interval sampling; see README "Sampled simulation").
	// The result becomes an estimate — sampled and exact runs cache under
	// different keys — and the estimate metadata (window count, 95%
	// confidence intervals, checkpoint reuse) comes back in the
	// response's "sampling" field.
	Sampling *config.Sampling `json:"sampling"`
}

// runResponse is the POST /v1/run reply.
type runResponse struct {
	Key      engine.Key            `json:"key"`
	Source   engine.Source         `json:"source"`
	Cached   bool                  `json:"cached"`
	Result   any                   `json:"result"`
	Sampling *cpu.SamplingEstimate `json:"sampling,omitempty"`
}

// validSampling checks a request's sampling schedule.
func validSampling(s *config.Sampling) error {
	if s != nil && !s.Valid() {
		return fmt.Errorf("invalid sampling schedule (warmup=%d detail=%d interval=%d): need warmup >= 0, detail > 0, warmup+detail <= interval",
			s.Warmup, s.Detail, s.Interval)
	}
	return nil
}

// resolveRun validates a runRequest against the registry and limits and
// returns the resolved config and seed.
func (s *Server) resolveRun(req *runRequest) (config.Config, uint64, error) {
	cfg, ok := config.Named(req.Config)
	if !ok {
		return config.Config{}, 0, fmt.Errorf("unknown config %q (see /v1/configs)", req.Config)
	}
	if _, ok := trace.Profiles[req.Benchmark]; !ok {
		return config.Config{}, 0, fmt.Errorf("unknown benchmark %q (see /v1/benchmarks)", req.Benchmark)
	}
	if req.Instructions <= 0 {
		req.Instructions = engine.DefaultInstructions
	}
	if req.Instructions > s.opts.MaxInstructions {
		return config.Config{}, 0, fmt.Errorf("instructions %d exceeds limit %d", req.Instructions, s.opts.MaxInstructions)
	}
	if err := validSampling(req.Sampling); err != nil {
		return config.Config{}, 0, err
	}
	cfg.Sampling = req.Sampling
	seed := uint64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	return cfg, seed, nil
}

// handleRun implements POST /v1/run. A point resident in memory is
// written straight from the engine's store: it neither simulates nor
// waits, so it needs no deadline context. Anything else goes through
// RunContext under the request's deadline and is encoded per request,
// including a point another request stored since the lookup.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	release, ok := s.adm.admit(w, r, s.draining.Load())
	if !ok {
		return
	}
	defer release()
	body := getRequestBody()
	defer body.release()
	req := &body.run
	if !body.decode(w, r, req) {
		return
	}
	cfg, seed, err := s.resolveRun(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A client that has already gone away gets 499, resident point or not.
	if err := r.Context().Err(); err != nil {
		s.writeSimError(w, err)
		return
	}
	key := engine.KeyFor(cfg, req.Benchmark, req.Instructions, seed)
	if res, ok := s.eng.Resident(key); ok {
		s.writeMemoryHit(w, key, res)
		return
	}
	ctx, cancel := s.requestContext(r, req.DeadlineMs)
	defer cancel()
	res, src, err := s.eng.RunContext(ctx, cfg, req.Benchmark, req.Instructions, seed)
	if err != nil {
		s.writeSimError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, newRunResponse(key, src, res))
}

// newRunResponse builds the /v1/run reply for a result served from src.
func newRunResponse(key engine.Key, src engine.Source, res cpu.Result) runResponse {
	return runResponse{
		Key:      key,
		Source:   src,
		Cached:   src != engine.SourceSimulated,
		Result:   res,
		Sampling: res.Sampling,
	}
}

// hitMemo holds the /v1/run response body of resident results, keyed by
// engine key, so a memory hit writes bytes encoded once instead of
// re-encoding a result that never changes. Each body is tied to the exact
// stored result it encodes through that result's Counters pointer: a key
// can come back as a different result (re-simulated after eviction, or
// reloaded from disk without its "sampling" estimate), and a body whose
// tie no longer matches is rebuilt. The memo never holds more bodies than
// the engine has resident results.
type hitMemo struct {
	mu     sync.Mutex
	bodies map[engine.Key]memoBody
}

// memoBody is one memoized response and the result it encodes.
type memoBody struct {
	counters *stats.Counters
	body     []byte
	length   []string // Content-Length header value
}

// jsonContentType is the Content-Type header value of a memory hit. Hits
// store it and memoBody.length in the header map as they are instead of
// allocating a slice per Set; nothing appends to or writes into a
// handler's header slices (net/http clones the map on WriteHeader).
var jsonContentType = []string{"application/json"}

// writeMemoryHit writes the /v1/run response of a resident result. A
// result with counters is written from the memo, whose body is built on
// the key's first hit with writeJSON's exact encoding, so the bytes are
// identical to a per-request encode; one without is encoded every time.
func (s *Server) writeMemoryHit(w http.ResponseWriter, key engine.Key, res cpu.Result) {
	if res.Counters == nil {
		writeJSON(w, http.StatusOK, newRunResponse(key, engine.SourceMemory, res))
		return
	}
	m := &s.hits
	m.mu.Lock()
	b, ok := m.bodies[key]
	m.mu.Unlock()
	if !ok || b.counters != res.Counters {
		resp := newRunResponse(key, engine.SourceMemory, res)
		var buf bytes.Buffer
		if err := encodeJSON(&buf, resp); err != nil {
			writeJSON(w, http.StatusOK, resp) // unencodable: fail as a per-request encode does
			return
		}
		b = memoBody{counters: res.Counters, body: buf.Bytes(), length: []string{strconv.Itoa(buf.Len())}}
		m.add(key, b, s.eng.Stats().Entries)
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = b.length
	w.WriteHeader(http.StatusOK)
	w.Write(b.body) //nolint:errcheck // headers sent; nothing left to report
}

// add stores a body, first dropping arbitrary others so the memo stays
// within the engine's resident results.
func (m *hitMemo) add(key engine.Key, b memoBody, resident int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.bodies, key)
	for k := range m.bodies {
		if len(m.bodies) < resident {
			break
		}
		delete(m.bodies, k)
	}
	if len(m.bodies) < resident {
		m.bodies[key] = b
	}
}
