package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(9)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("value %d never drawn", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	n := 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(19)
	c1 := s.Split()
	c2 := s.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children correlated")
	}
}

// TestChanceDrawsAsBool checks that a precomputed Chance draws exactly as
// Bool: the same outcome and the same state afterwards, for random states
// and for probabilities at and around every edge of the threshold rule.
func TestChanceDrawsAsBool(t *testing.T) {
	drv := New(97)
	ps := []float64{-1, 0, math.SmallestNonzeroFloat64, 0x1p-60, 0x1p-53, 0.5,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 1 - 0x1p-53, 1, 2, math.Inf(1), math.Inf(-1)}
	for i := 0; i < 200; i++ {
		ps = append(ps, drv.Float64())
	}
	for _, p := range ps {
		c := NewChance(p)
		for i := 0; i < 2000; i++ {
			state := drv.Uint64()
			if i%2 == 0 {
				// States whose next draw lands next to the threshold,
				// where a rounding slip would show.
				state = nearThreshold(drv, p)
			}
			a, b := &Source{state: state}, &Source{state: state}
			if i%2 == 0 && p > 0 && p < 1 {
				if d := int64((&Source{state: state}).Uint64()>>11) - int64(math.Ceil(p*(1<<53))); d < -2 || d > 2 {
					t.Fatalf("p=%v: near-threshold state draws %d units away", p, d)
				}
			}
			if got, want := a.Draw(c), b.Bool(p); got != want || a.state != b.state {
				t.Fatalf("p=%v state=%#x: Draw=%v (state %#x), Bool=%v (state %#x)", p, state, got, a.state, want, b.state)
			}
		}
	}
}

// nearThreshold returns a random state, or for p in (0, 1) one whose next
// draw's top 53 bits are within two units of ceil(p*2^53).
func nearThreshold(drv *Source, p float64) uint64 {
	if !(p > 0 && p < 1) {
		return drv.Uint64()
	}
	target := min(max(int64(math.Ceil(p*(1<<53)))+int64(drv.Intn(5))-2, 0), 1<<53-1)
	// SplitMix64's output is a bijection of the incremented state, so the
	// state is found by inverting the finalizer.
	return unmix(uint64(target)<<11|drv.Uint64()>>53) - 0x9e3779b97f4a7c15
}

// unmix inverts SplitMix64's output finalizer.
func unmix(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= 0x319642b2d24d8ec3 // inverse of 0x94d049bb133111eb
	z = unxorshift(z, 27)
	z *= 0x96de1b173f119089 // inverse of 0xbf58476d1ce4e5b9
	return unxorshift(z, 30)
}

// unxorshift inverts z ^= z >> k.
func unxorshift(z uint64, k uint) uint64 {
	x := z
	for i := k; i < 64; i += k {
		x = z ^ x>>k
	}
	return x
}

func TestNewChanceRejectsNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChance(NaN) did not panic")
		}
	}()
	NewChance(math.NaN())
}
