package engine

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"malec/internal/config"
)

// raceDetector is set under -race, which changes allocation counts.
var raceDetector bool

// randomConfig draws a configuration with every scalar field random, a
// WTPoolFraction that is often a signed zero, and a Sampling that is nil
// half of the time.
func randomConfig(r *rand.Rand) config.Config {
	var cfg config.Config
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(r.IntN(8)))
		case reflect.Uint64:
			f.SetUint(r.Uint64N(4))
		case reflect.Bool:
			f.SetBool(r.IntN(2) == 0)
		case reflect.String:
			f.SetString([]string{"MALEC", "Base1ldst", ""}[r.IntN(3)])
		}
	}
	cfg.WTPoolFraction = []float64{0, math.Copysign(0, -1), 0.25, r.Float64()}[r.IntN(4)]
	if r.IntN(2) == 0 {
		cfg.Sampling = &config.Sampling{Warmup: r.IntN(3), Detail: 1 + r.IntN(3), Interval: 10 + r.IntN(3)}
	}
	return cfg
}

// TestConfigDigestMemoMatchesUncached checks memoized digests against the
// uncached encode-and-hash over randomized configurations. Each draw is
// digested twice, so the memo hit is checked as well as the miss.
func TestConfigDigestMemoMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 4000; i++ {
		cfg := randomConfig(r)
		want := configDigest(cfg)
		for j := 0; j < 2; j++ {
			if got := ConfigDigest(cfg); got != want {
				t.Fatalf("draw %d call %d: ConfigDigest = %s, uncached %s (%+v)", i, j, got, want, cfg)
			}
		}
	}
}

// TestConfigDigestSignedZero pins that -0.0 and +0.0 pool fractions, equal
// under ==, keep their distinct digests through the memo in either order.
func TestConfigDigestSignedZero(t *testing.T) {
	pos, neg := config.MALEC(), config.MALEC()
	pos.WTPoolFraction, neg.WTPoolFraction = 0, math.Copysign(0, -1)
	if configDigest(pos) == configDigest(neg) {
		t.Fatal("signed zeros share an uncached digest; the test no longer covers the trap")
	}
	for _, order := range [][]config.Config{{pos, neg}, {neg, pos}} {
		clearDigestMemo()
		for _, cfg := range order {
			if got, want := ConfigDigest(cfg), configDigest(cfg); got != want {
				t.Errorf("WTPoolFraction %v: ConfigDigest = %s, uncached %s", cfg.WTPoolFraction, got, want)
			}
		}
	}
}

// TestConfigDigestMutatedSampling reuses one Sampling, mutating it between
// calls: every call must see the schedule as it is now.
func TestConfigDigestMutatedSampling(t *testing.T) {
	cfg := config.MALEC()
	s := config.DefaultSampling()
	cfg.Sampling = s
	seen := map[string]bool{}
	for i := 1; i <= 5; i++ {
		s.Detail = 1000 * i
		got, want := ConfigDigest(cfg), configDigest(cfg)
		if got != want {
			t.Fatalf("Detail %d: ConfigDigest = %s, uncached %s", s.Detail, got, want)
		}
		seen[got] = true
	}
	if len(seen) != 5 {
		t.Fatalf("5 schedules gave %d digests", len(seen))
	}
}

// TestConfigDigestMemoBounded feeds 10k distinct schedules through the
// memo, as /v1/run may, and requires it to stay within its bound.
func TestConfigDigestMemoBounded(t *testing.T) {
	cfg := config.MALEC()
	for i := 0; i < 10_000; i++ {
		cfg.Sampling = &config.Sampling{Warmup: i, Detail: 1, Interval: i + 1}
		ConfigDigest(cfg)
		digests.mu.Lock()
		n := len(digests.m)
		digests.mu.Unlock()
		if n > digestMemoSize {
			t.Fatalf("after %d schedules the memo holds %d digests, bound %d", i+1, n, digestMemoSize)
		}
	}
}

// TestConfigDigestConcurrent digests overlapping configurations from
// several goroutines while distinct schedules keep refilling and emptying
// the memo; every digest must match the uncached one.
func TestConfigDigestConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := config.MALEC()
			for i := 0; i < 600; i++ {
				cfg.Sampling = &config.Sampling{Warmup: i % 300, Detail: 1, Interval: 400}
				if got, want := ConfigDigest(cfg), configDigest(cfg); got != want {
					t.Errorf("goroutine %d, schedule %d: ConfigDigest = %s, uncached %s", g, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDigestKeyCoversConfig guards the memo key: digestKey holds
// config.Config by value, which is only a faithful key while every field
// other than Sampling is a comparable scalar. A pointer, map, slice,
// interface, func or channel would compare by identity (or not at all),
// and a float other than WTPoolFraction would merge signed zeros.
func TestDigestKeyCoversConfig(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Interface,
			reflect.Func, reflect.Chan, reflect.UnsafePointer:
			if path != "Config.Sampling" {
				t.Errorf("%s is a %s: digestKey would not key it by value", path, typ.Kind())
			}
		case reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			if path != "Config.WTPoolFraction" {
				t.Errorf("%s is a %s: digestKey would merge its signed zeros", path, typ.Kind())
			}
		}
	}
	check("Config", reflect.TypeOf(config.Config{}))
	check("Sampling", reflect.TypeOf(config.Sampling{}))
}

// TestKeyForMemoizedAllocationFree pins that deriving the key of a config
// already in the memo encodes, hashes and allocates nothing.
func TestKeyForMemoizedAllocationFree(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := config.MALEC()
	cfg.Sampling = config.DefaultSampling()
	KeyFor(cfg, "gzip", 30000, 1)
	if n := testing.AllocsPerRun(100, func() { KeyFor(cfg, "gzip", 30000, 1) }); n != 0 {
		t.Fatalf("KeyFor on a memoized config allocates %.1f/op, want 0", n)
	}
}

func clearDigestMemo() {
	digests.mu.Lock()
	clear(digests.m)
	digests.mu.Unlock()
}
