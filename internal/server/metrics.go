package server

// This file is the serving observability layer: per-endpoint request
// counters, in-flight gauges and latency histograms collected around
// every handler, the engine's cache/dedup/trace/scheduler counters
// re-exported at scrape time, and the GET /metrics endpoint rendering
// it all in the Prometheus text exposition format. This is malecd's only
// stats surface: every engine.Stats and engine.CampaignManagerStats field
// has a series here (TestMetricsCoverEngineStats), and latency quantiles
// are histogram_quantile over the exported buckets. One scrape tells the
// whole story: HTTP-level load and latency plus what the engine did with
// it.

import (
	"net/http"
	"sync"
	"time"

	"malec/internal/engine"
	"malec/internal/metrics"
)

// endpointMetrics is the fixed instrument set of one route, resolved at
// registration so request handling performs no label work.
type endpointMetrics struct {
	inFlight *metrics.Gauge
	latency  *metrics.Histogram
	// codes counts finished requests by status class: 2xx, 4xx, 5xx and
	// other (1xx/3xx, never produced today).
	codes [4]*metrics.Counter
}

// codeClasses orders the endpointMetrics.codes counters.
var codeClasses = [4]string{"2xx", "4xx", "5xx", "other"}

// classIndex maps a status code to its codes counter.
func classIndex(code int) int {
	switch {
	case code >= 200 && code < 300:
		return 0
	case code >= 400 && code < 500:
		return 1
	case code >= 500:
		return 2
	}
	return 3
}

// newEndpointMetrics registers one route's instruments.
func newEndpointMetrics(reg *metrics.Registry, route string) *endpointMetrics {
	ep := &endpointMetrics{
		inFlight: reg.Gauge("malecd_http_in_flight",
			"Requests currently being handled.",
			metrics.Label{Name: "endpoint", Value: route}),
		latency: reg.Histogram("malecd_http_request_seconds",
			"Request latency by endpoint.", nil,
			metrics.Label{Name: "endpoint", Value: route}),
	}
	for i, class := range codeClasses {
		ep.codes[i] = reg.Counter("malecd_http_requests_total",
			"Requests served by endpoint and status class.",
			metrics.Label{Name: "endpoint", Value: route},
			metrics.Label{Name: "code", Value: class})
	}
	return ep
}

// statusWriter captures the response status for the code-class counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// statusWriters recycles the wrappers, so instrumentation allocates
// nothing per request.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers (campaign
// NDJSON results) still reach the wire through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle registers an instrumented route on the mux: in-flight gauge
// around the handler, latency observed on completion, status class
// counted from the recorded code. Methods sharing one route pattern
// (GET/DELETE /v1/campaigns/{id}) share one instrument set — the
// endpoint label stays the route, bounding metric cardinality.
func (s *Server) handle(method, route string, h http.HandlerFunc) {
	ep := s.endpoints[route]
	if ep == nil {
		ep = newEndpointMetrics(s.reg, route)
		s.endpoints[route] = ep
	}
	s.mux.HandleFunc(method+" "+route, func(w http.ResponseWriter, r *http.Request) {
		ep.inFlight.Inc()
		defer ep.inFlight.Dec()
		sw := statusWriters.Get().(*statusWriter)
		*sw = statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		ep.latency.Observe(time.Since(start))
		ep.codes[classIndex(sw.code)].Inc()
		*sw = statusWriter{}
		statusWriters.Put(sw)
	})
}

// registerEngineMetrics re-exports the engine's counters as scrape-time
// metrics. One OnScrape hook refreshes a single coherent Stats snapshot
// (instead of one engine lock round-trip per metric), which the
// CounterFunc/GaugeFunc closures read under the registry lock.
func (s *Server) registerEngineMetrics() {
	var st engine.Stats
	s.reg.OnScrape(func() { st = s.eng.Stats() })
	counter := func(name, help string, v func() uint64) {
		s.reg.CounterFunc(name, help, func() float64 { return float64(v()) })
	}
	gauge := func(name, help string, v func() int) {
		s.reg.GaugeFunc(name, help, func() float64 { return float64(v()) })
	}
	counter("malec_engine_cache_hits_total",
		"Requests served from the in-memory result cache.",
		func() uint64 { return st.Hits })
	counter("malec_engine_disk_hits_total",
		"Requests served from the disk result store.",
		func() uint64 { return st.DiskHits })
	counter("malec_engine_dedup_total",
		"Requests attached to an in-flight simulation (singleflight).",
		func() uint64 { return st.Dedup })
	counter("malec_engine_simulations_total",
		"Simulations actually executed.",
		func() uint64 { return st.Simulations })
	counter("malec_engine_trace_hits_total",
		"Simulations served from an already-materialized trace arena.",
		func() uint64 { return st.TraceHits })
	counter("malec_engine_trace_misses_total",
		"Simulations that had to generate (or extend) a trace arena.",
		func() uint64 { return st.TraceMisses })
	counter("malec_engine_cancelled_total",
		"In-flight simulations abandoned because every caller went away.",
		func() uint64 { return st.Cancelled })
	counter("malec_engine_panics_total",
		"Simulation panics contained as structured per-job errors.",
		func() uint64 { return st.Panics })
	counter("malec_engine_quarantined_total",
		"Poisoned keys plus corrupt store entries quarantined aside.",
		func() uint64 { return st.Quarantined })
	counter("malec_engine_corrupt_pruned_total",
		".corrupt quarantine files removed by retention sweeps.",
		func() uint64 { return st.CorruptPruned })
	gauge("malec_engine_poisoned_keys",
		"Keys currently quarantined after a simulation panic.",
		func() int { return st.PoisonedKeys })
	gauge("malec_engine_cache_entries",
		"Current in-memory result cache size.",
		func() int { return st.Entries })
	gauge("malec_engine_trace_records",
		"Trace records resident in the materialized-trace cache.",
		func() int { return st.TraceRecords })
	gauge("malec_engine_queue_depth",
		"Units (single points or campaign traces) waiting for a worker slot.",
		func() int { return st.QueueDepth })
	gauge("malec_engine_running",
		"Worker slots held right now, one per unit computing; a unit runs at most two simulation goroutines.",
		func() int { return st.Running })
	s.reg.GaugeFunc("malecd_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
}

// registerCampaignMetrics re-exports the campaign manager's counters,
// refreshed as one coherent snapshot per scrape like the engine's.
func (s *Server) registerCampaignMetrics() {
	var st engine.CampaignManagerStats
	s.reg.OnScrape(func() { st = s.camps.Stats() })
	s.reg.GaugeFunc("malec_campaigns_active",
		"Campaigns currently running.",
		func() float64 { return float64(st.Active) })
	s.reg.GaugeFunc("malec_campaigns_known",
		"Campaigns registered (running + finished).",
		func() float64 { return float64(st.Campaigns) })
	s.reg.CounterFunc("malec_campaign_retries_total",
		"Per-job retry attempts across all campaigns.",
		func() float64 { return float64(st.Retries) })
	s.reg.CounterFunc("malec_campaign_failed_points_total",
		"Campaign jobs that exhausted their retries.",
		func() float64 { return float64(st.FailedPoints) })
	s.reg.CounterFunc("malec_campaign_replayed_points_total",
		"Journaled points re-admitted at startup without recomputation.",
		func() float64 { return float64(st.ReplayedPoints) })
	s.reg.CounterFunc("malec_campaign_journal_torn_total",
		"Torn/corrupt journal tail bytes truncated during replay.",
		func() float64 { return float64(st.JournalTorn) })
	s.reg.CounterFunc("malec_campaign_journals_pruned_total",
		"Completed campaign journals removed by retention sweeps.",
		func() float64 { return float64(st.JournalsPruned) })
}

// handleMetrics implements GET /metrics (Prometheus text exposition).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck // headers sent; nothing left to report
}
