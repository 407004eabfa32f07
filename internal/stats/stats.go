// Package stats provides the statistics primitives used by the simulator:
// named counters, histograms, locality analyzers and simple aggregate math
// (geometric means) matching how the paper reports its results.
package stats

import "math"

// Histogram is an integer-valued histogram with explicit bucket upper
// bounds. A sample x falls into the first bucket whose bound is >= x; values
// above the last bound fall into the overflow bucket.
type Histogram struct {
	bounds   []int
	counts   []uint64
	overflow uint64
	total    uint64
}

// NewHistogram returns a histogram with the given ascending bucket bounds.
func NewHistogram(bounds ...int) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Observe records one sample.
func (h *Histogram) Observe(x int) {
	h.total++
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i]++
			return
		}
	}
	h.overflow++
}

// Total returns the number of observed samples.
func (h *Histogram) Total() uint64 { return h.total }

// Fraction returns the fraction of samples in bucket i (the overflow bucket
// is index len(bounds)).
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	if i == len(h.bounds) {
		return float64(h.overflow) / float64(h.total)
	}
	return float64(h.counts[i]) / float64(h.total)
}

// Buckets returns a copy of the per-bucket counts, with the overflow bucket
// appended.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.counts)+1)
	copy(out, h.counts)
	out[len(h.counts)] = h.overflow
	return out
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
// The paper reports per-suite and overall geometric means.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
