// Package rng provides a small, fast, deterministic pseudo random number
// generator (SplitMix64). All stochastic behaviour in the simulator flows
// from this package so results are bit-reproducible across platforms and Go
// releases, unlike math/rand whose stream may change between versions.
package rng

import "math"

// Source is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0; prefer New to mix the seed.
type Source struct {
	state uint64
}

// New returns a Source seeded from seed. Two sources with different seeds
// produce uncorrelated streams for simulation purposes.
func New(seed uint64) *Source {
	s := &Source{state: seed}
	// Warm the state so nearby seeds diverge immediately.
	s.Uint64()
	return s
}

// Uint64 returns the next 64 pseudo random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a pseudo random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Chance is a probability precomputed for repeated draws: the integer
// threshold below which the top 53 bits of a draw fall with that
// probability. Drawing a Chance is bit-identical to Bool with the same p,
// including Bool's rule that p <= 0 and p >= 1 consume no draw: since
// Float64 is x/2^53 for an integer x, x/2^53 < p exactly when
// x < ceil(p*2^53).
type Chance uint64

// chanceAlways marks p >= 1. Every p below 1 has a threshold of at most
// 2^53 - 1, and p <= 0 is threshold 0.
const chanceAlways Chance = 1 << 53

// NewChance precomputes p for Source.Draw. p must not be NaN.
func NewChance(p float64) Chance {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return chanceAlways
	case math.IsNaN(p):
		panic("rng: NaN probability")
	}
	// p*2^53 only rescales the exponent, so it is exact.
	return Chance(math.Ceil(p * (1 << 53)))
}

// Draw returns true with the precomputed probability c, consuming a draw
// exactly when Bool would.
func (s *Source) Draw(c Chance) bool {
	switch c {
	case 0:
		return false
	case chanceAlways:
		return true
	}
	return s.Uint64()>>11 < uint64(c)
}

// Split returns a new Source whose stream is independent of s. It is useful
// for giving sub-components their own deterministic streams.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xd1b54a32d192ed03)
}

// State returns the generator's internal state so a checkpoint can resume
// the stream exactly where it left off.
func (s *Source) State() uint64 { return s.state }

// SetState restores state previously obtained from State. The next Uint64
// continues the original stream bit-identically.
func (s *Source) SetState(state uint64) { s.state = state }
