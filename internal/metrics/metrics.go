// Package metrics is a small, allocation-conscious metrics library for
// the serving layer: counters, gauges and fixed-bucket latency histograms
// collected into a Registry that renders the Prometheus text exposition
// format (no external dependencies).
//
// The hot paths — Counter.Inc/Add, Gauge ops, Histogram.Observe — are
// single atomic operations (plus a short fixed-bound scan for the
// histogram bucket) and allocate nothing, so instrumenting a request
// path costs nanoseconds and never perturbs the allocation ceilings the
// core is gated on. All rendering work (label strings, family grouping)
// happens once at registration time.
//
// Metrics are identified by a family name plus an optional fixed label
// set, resolved at construction: per-endpoint instruments are distinct
// Counter/Histogram values sharing one family, which is exactly the
// Prometheus data model and keeps request handling free of any map
// lookups or label formatting.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one fixed name="value" pair attached to a metric at
// construction time.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing value. The zero value is usable
// but unregistered; obtain registered counters from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets are the default latency histogram bounds: 0.5ms to
// 10s in a roughly 1-2.5-5 progression, wide enough to cover both a
// cache-hit response (tens of microseconds server-side) and a full sweep
// under saturation.
var DefLatencyBuckets = []time.Duration{
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// Histogram counts observations into fixed buckets chosen at
// construction. Observe is lock-free: one atomic add into the bucket
// whose upper bound first contains the value (le semantics, matching
// Prometheus), one into the count and one into the nanosecond sum.
// Quantiles are left to the scraper (histogram_quantile over the
// exported buckets).
type Histogram struct {
	boundsNs  []int64 // sorted upper bounds, nanoseconds; +Inf implicit
	boundsSec []float64
	buckets   []atomic.Uint64 // len(boundsNs)+1, non-cumulative
	count     atomic.Uint64
	sumNs     atomic.Int64
}

// newHistogram builds an unregistered histogram over the given bounds.
func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	h := &Histogram{
		boundsNs:  make([]int64, len(bounds)),
		boundsSec: make([]float64, len(bounds)),
		buckets:   make([]atomic.Uint64, len(bounds)+1),
	}
	for i, b := range bounds {
		h.boundsNs[i] = b.Nanoseconds()
		h.boundsSec[i] = b.Seconds()
	}
	if !sort.SliceIsSorted(h.boundsNs, func(i, j int) bool { return h.boundsNs[i] < h.boundsNs[j] }) {
		panic("metrics: histogram bounds must be sorted ascending")
	}
	return h
}

// Observe records one duration. It is safe for concurrent use and
// performs no allocation.
func (h *Histogram) Observe(d time.Duration) {
	n := d.Nanoseconds()
	i := 0
	for i < len(h.boundsNs) && n > h.boundsNs[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(n)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// metric renders one registered instrument's sample lines.
type metric interface {
	writeText(b *strings.Builder, name, labels string)
}

// family groups all instruments sharing one metric name.
type family struct {
	name string
	help string
	typ  string
	rows []row
}

// row is one labeled instrument within a family.
type row struct {
	labels string // pre-rendered: "" or `{k="v",...}`
	m      metric
}

// Registry holds registered metrics and renders them. Registration is
// expected at construction time of the instrumented component; reads
// (WritePrometheus) may run concurrently with hot-path updates.
type Registry struct {
	mu       sync.Mutex
	fams     []*family
	byName   map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnScrape registers a hook invoked (under the registry lock) at the
// start of every WritePrometheus call. Components whose
// counters live elsewhere (e.g. the engine's Stats) refresh one coherent
// snapshot here for their CounterFunc/GaugeFunc closures to read.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// register attaches one instrument to its (possibly new) family.
func (r *Registry) register(name, help, typ string, labels []Label, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
	}
	ls := renderLabels(labels)
	for _, row := range f.rows {
		if row.labels == ls {
			panic(fmt.Sprintf("metrics: duplicate registration of %s%s", name, ls))
		}
	}
	f.rows = append(f.rows, row{labels: ls, m: m})
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, (*counterMetric)(c))
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels, (*gaugeMetric)(g))
	return g
}

// Histogram registers and returns a histogram over the given bucket
// bounds (nil selects DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, "histogram", labels, (*histogramMetric)(h))
	return h
}

// CounterFunc registers a counter whose value is computed at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "counter", labels, funcMetric(fn))
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, funcMetric(fn))
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, families in registration order, rows in
// registration order within a family — deterministic, so output is
// golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	for _, fn := range r.onScrape {
		fn()
	}
	var b strings.Builder
	for _, f := range r.fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, row := range f.rows {
			row.m.writeText(&b, f.name, row.labels)
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// counterMetric adapts Counter to the metric interface.
type counterMetric Counter

func (c *counterMetric) writeText(b *strings.Builder, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint((*Counter)(c).Value(), 10))
	b.WriteByte('\n')
}

// gaugeMetric adapts Gauge to the metric interface.
type gaugeMetric Gauge

func (g *gaugeMetric) writeText(b *strings.Builder, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt((*Gauge)(g).Value(), 10))
	b.WriteByte('\n')
}

// funcMetric adapts a scrape-time callback to the metric interface.
type funcMetric func() float64

func (f funcMetric) writeText(b *strings.Builder, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(f()))
	b.WriteByte('\n')
}

// histogramMetric adapts Histogram to the metric interface.
type histogramMetric Histogram

func (hm *histogramMetric) writeText(b *strings.Builder, name, labels string) {
	h := (*Histogram)(hm)
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.boundsSec) {
			le = formatFloat(h.boundsSec[i])
		}
		b.WriteString(name)
		b.WriteString("_bucket")
		b.WriteString(mergeLabel(labels, "le", le))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum().Seconds()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(h.Count(), 10))
	b.WriteByte('\n')
}

// renderLabels renders a fixed label set once, at registration.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel appends one extra label pair to a pre-rendered label string
// (used for histogram le labels).
func mergeLabel(labels, name, value string) string {
	extra := name + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
