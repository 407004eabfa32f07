package main

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Now()
	cases := []struct {
		in       string
		min, max time.Duration
	}{
		{"", 0, 0},
		{"2", 2 * time.Second, 2 * time.Second},
		{"0.5", 500 * time.Millisecond, 500 * time.Millisecond},
		{"-3", 0, 0},
		{"0", 0, 0},
		{"soon", 0, 0},
		{"NaN", 0, 0},
		// A count past the longest Duration saturates; backoff caps it.
		{"1e10", math.MaxInt64, math.MaxInt64},
		{"Inf", math.MaxInt64, math.MaxInt64},
		// HTTP-date: a future date yields roughly the remaining interval, a
		// past date yields 0 rather than a negative sleep.
		{now.Add(3 * time.Second).UTC().Format(http.TimeFormat), 1 * time.Second, 3 * time.Second},
		{now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, 0},
	}
	for _, tc := range cases {
		got := parseRetryAfter(tc.in)
		if got < tc.min || got > tc.max {
			t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]", tc.in, got, tc.min, tc.max)
		}
	}
}

func TestParseMix(t *testing.T) {
	weights, schedule, err := parseMix("hit=2,run=1")
	if err != nil {
		t.Fatal(err)
	}
	if weights["hit"] != 2 || weights["run"] != 1 || len(schedule) != 3 {
		t.Fatalf("weights=%v schedule len=%d", weights, len(schedule))
	}
	runs := 0
	for _, k := range schedule {
		if k == kindRun {
			runs++
		}
	}
	if runs != 1 {
		t.Fatalf("schedule has %d run slots, want 1", runs)
	}
	for _, spec := range []string{"sweep=1", "hit=1,stream=1", "run=0", "hit=1,hit=2", "teapot=1"} {
		if _, _, err := parseMix(spec); err == nil {
			t.Errorf("parseMix(%q) accepted", spec)
		}
	}
}

// FuzzParseRetryAfter checks that no Retry-After value yields a negative
// sleep, that a value which is neither a number nor an HTTP-date yields
// none, and that a count of at least a nanosecond yields a positive one.
// The seed corpus holds the values whose second counts overflow a
// Duration (NaN, Inf, 1e10, 0x1p70).
func FuzzParseRetryAfter(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		got := parseRetryAfter(v)
		if got < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want >= 0", v, got)
		}
		secs, numErr := strconv.ParseFloat(v, 64)
		_, dateErr := http.ParseTime(v)
		if numErr != nil && !errors.Is(numErr, strconv.ErrRange) && dateErr != nil && got != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v for neither a number nor a date, want 0", v, got)
		}
		if numErr == nil && secs >= 1e-9 && got <= 0 {
			t.Fatalf("parseRetryAfter(%q) = %v for %g seconds, want > 0", v, got, secs)
		}
	})
}
