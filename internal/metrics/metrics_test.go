package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the le (inclusive upper bound)
// bucket semantics: an observation equal to a bound lands in that
// bound's bucket, one nanosecond above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	cases := []struct {
		d    time.Duration
		want int // bucket index
	}{
		{0, 0},
		{time.Millisecond - 1, 0},
		{time.Millisecond, 0}, // le: exactly on the bound is inside
		{time.Millisecond + 1, 1},
		{10 * time.Millisecond, 1},
		{10*time.Millisecond + 1, 2},
		{100 * time.Millisecond, 2},
		{100*time.Millisecond + 1, 3}, // +Inf overflow bucket
		{time.Hour, 3},
	}
	for _, c := range cases {
		before := make([]uint64, len(h.buckets))
		for i := range h.buckets {
			before[i] = h.buckets[i].Load()
		}
		h.Observe(c.d)
		for i := range h.buckets {
			delta := h.buckets[i].Load() - before[i]
			if (i == c.want) != (delta == 1) {
				t.Fatalf("Observe(%v): bucket %d delta %d, want observation in bucket %d",
					c.d, i, delta, c.want)
			}
		}
	}
	if got := h.Count(); got != uint64(len(cases)) {
		t.Fatalf("Count() = %d, want %d", got, len(cases))
	}
}

// TestConcurrentObserve hammers one histogram and one counter from many
// goroutines while a reader scrapes; run under -race this is the data
// race guard for the whole hot path.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "test", nil)
	c := r.Counter("t_total", "test")
	g := r.Gauge("t_inflight", "test")

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				r.WritePrometheus(&sb) //nolint:errcheck // strings.Builder cannot fail
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*perWorker+i) * time.Microsecond)
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}(w)
	}
	// Stop the scraper only after every writer finished, so it always
	// races against live updates.
	for c.Value() < workers*perWorker {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

// TestWritePrometheusGolden pins the full text exposition output for a
// deterministic registry: family grouping, HELP/TYPE lines, label
// rendering and escaping, cumulative histogram buckets, le formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("malecd_http_requests_total", "Requests served.",
		Label{"endpoint", "/v1/run"}, Label{"code", "2xx"})
	c2 := r.Counter("malecd_http_requests_total", "Requests served.",
		Label{"endpoint", "/v1/run"}, Label{"code", "4xx"})
	g := r.Gauge("malecd_http_in_flight", "In-flight requests.",
		Label{"endpoint", "/v1/run"})
	h := r.Histogram("malecd_http_request_seconds", "Request latency.",
		[]time.Duration{time.Millisecond, 100 * time.Millisecond},
		Label{"endpoint", "/v1/run"})
	var entries float64
	r.OnScrape(func() { entries = 7 })
	r.GaugeFunc("malec_engine_cache_entries", "Cache entries.", func() float64 { return entries })
	esc := r.Counter("t_escaped_total", "Escaping.", Label{"path", `a"b\c`})

	c1.Add(3)
	c2.Inc()
	g.Set(2)
	h.Observe(500 * time.Microsecond)  // first bucket
	h.Observe(time.Millisecond)        // still first (le)
	h.Observe(50 * time.Millisecond)   // second
	h.Observe(2500 * time.Millisecond) // +Inf
	esc.Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP malecd_http_requests_total Requests served.
# TYPE malecd_http_requests_total counter
malecd_http_requests_total{endpoint="/v1/run",code="2xx"} 3
malecd_http_requests_total{endpoint="/v1/run",code="4xx"} 1
# HELP malecd_http_in_flight In-flight requests.
# TYPE malecd_http_in_flight gauge
malecd_http_in_flight{endpoint="/v1/run"} 2
# HELP malecd_http_request_seconds Request latency.
# TYPE malecd_http_request_seconds histogram
malecd_http_request_seconds_bucket{endpoint="/v1/run",le="0.001"} 2
malecd_http_request_seconds_bucket{endpoint="/v1/run",le="0.1"} 3
malecd_http_request_seconds_bucket{endpoint="/v1/run",le="+Inf"} 4
malecd_http_request_seconds_sum{endpoint="/v1/run"} 2.5515
malecd_http_request_seconds_count{endpoint="/v1/run"} 4
# HELP malec_engine_cache_entries Cache entries.
# TYPE malec_engine_cache_entries gauge
malec_engine_cache_entries 7
# HELP t_escaped_total Escaping.
# TYPE t_escaped_total counter
t_escaped_total{path="a\"b\\c"} 1
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSnapshot pins what one scrape reads: OnScrape hooks run exactly
// once per WritePrometheus call, before any scrape-time function reads
// what they refresh, and every series reports its value at that moment.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c", Label{"k", "v"})
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", []time.Duration{time.Millisecond})
	scrapes := 0
	var refreshed float64
	r.OnScrape(func() { scrapes++; refreshed = float64(scrapes) + 0.5 })
	r.GaugeFunc("fn", "fn", func() float64 { return refreshed })

	c.Add(2)
	g.Set(-4)
	h.Observe(2 * time.Millisecond)

	for want := 1; want <= 2; want++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if scrapes != want {
			t.Fatalf("after scrape %d: OnScrape ran %d times, want %d", want, scrapes, want)
		}
		out := sb.String()
		for _, line := range []string{
			`c_total{k="v"} 2`,
			"g -4",
			"fn " + formatFloat(float64(want)+0.5),
			`h_seconds_bucket{le="0.001"} 0`,
			`h_seconds_bucket{le="+Inf"} 1`,
			"h_seconds_sum 0.002",
			"h_seconds_count 1",
		} {
			if !strings.Contains(out, line+"\n") {
				t.Fatalf("scrape %d lacks %q:\n%s", want, line, out)
			}
		}
	}
}

// TestRegistrationPanics pins the programmer-error guards: one name
// cannot carry two types, and an identical (name, labels) pair cannot be
// registered twice.
func TestRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("x_total", "x")
	expectPanic("type conflict", func() { r.Gauge("x_total", "x") })
	expectPanic("duplicate", func() { r.Counter("x_total", "x") })
}

// TestObserveAllocationFree locks in the zero-allocation guarantee of
// every hot-path operation; a map lookup or label render sneaking into
// Observe would show up here long before it showed up in a profile.
func TestObserveAllocationFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", nil, Label{"endpoint", "/v1/run"})
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(3 * time.Millisecond)
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Inc()
		g.Dec()
	}); n != 0 {
		t.Fatalf("Counter/Gauge ops allocate %.1f/op, want 0", n)
	}
}
