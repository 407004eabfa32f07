package main

import "sort"

// median returns the median of xs (the mean of the middle two for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank per-mille quantile of sorted, non-empty
// samples and the number of samples strictly beyond its rank. Integer
// arithmetic keeps the rank exact (0.999*n is not exact in floating point).
func rank(sorted []float64, permille int) (v float64, beyond int) {
	n := len(sorted)
	k := max(1, (n*permille+999)/1000) // ceil(n*p), the 1-based rank
	return sorted[k-1], n - k
}

// tailMinBeyond is how many samples a tail percentile needs beyond it to be
// reported.
const tailMinBeyond = 10

// tail applies the tail_ms rule to sorted, non-empty samples: the highest
// of p90, p99 and p99.9 with at least tailMinBeyond samples beyond it. With
// fewer than 100 samples none has that support, and the tail is the
// slowest sample ("max"). It returns the value, the percentile's label and
// the number of samples beyond it.
func tail(sorted []float64) (v float64, label string, beyond int) {
	for _, p := range []struct {
		permille int
		label    string
	}{{999, "p99.9"}, {990, "p99"}, {900, "p90"}} {
		if v, b := rank(sorted, p.permille); b >= tailMinBeyond {
			return v, p.label, b
		}
	}
	return sorted[len(sorted)-1], "max", 0
}
