package config

import (
	"math/big"
	"testing"
)

// bigValid is Sampling.Valid computed in arbitrary precision, where
// Warmup+Detail cannot wrap.
func bigValid(s Sampling) bool {
	w, d, i := big.NewInt(int64(s.Warmup)), big.NewInt(int64(s.Detail)), big.NewInt(int64(s.Interval))
	return w.Sign() >= 0 && d.Sign() > 0 && i.Sign() > 0 &&
		new(big.Int).Add(w, d).Cmp(i) <= 0
}

// FuzzSamplingValid checks Sampling.Valid against the arbitrary-precision
// oracle for every schedule, the ones whose Warmup+Detail overflows int
// included. Seeds live under testdata/fuzz/FuzzSamplingValid.
func FuzzSamplingValid(f *testing.F) {
	f.Add(2000, 8000, 1_000_000)
	f.Fuzz(func(t *testing.T, warmup, detail, interval int) {
		s := Sampling{Warmup: warmup, Detail: detail, Interval: interval}
		if got, want := s.Valid(), bigValid(s); got != want {
			t.Fatalf("%+v: Valid() = %v, want %v", s, got, want)
		}
	})
}
