// Package tlb implements the address translation substrate: a deterministic
// page table, fully-associative TLB arrays with pluggable replacement
// policies, reverse (physical) lookups required by way-table maintenance,
// and the two-level uTLB/TLB hierarchy of the paper (16-entry uTLB with
// second-chance replacement, 64-entry TLB with random replacement).
package tlb

import "malec/internal/rng"

// Policy selects replacement victims for a fully-associative array.
type Policy interface {
	// Touch marks entry i as referenced.
	Touch(i int)
	// Victim returns the entry index to evict next.
	Victim() int
	// State serializes the policy's replacement metadata (reference bits,
	// LRU stamps, rotation hands, rng state) for checkpointing.
	State() []uint64
	// StateLen returns the length of State's result.
	StateLen() int
	// SetState restores metadata previously obtained from State, so the
	// victim stream continues bit-identically.
	SetState(st []uint64)
}

// NewPolicy constructs a policy by name: "random", "second-chance", "lru"
// or "fifo". Unknown names panic; policies are configuration-time objects.
func NewPolicy(name string, size int, src *rng.Source) Policy {
	switch name {
	case "random":
		return &randomPolicy{size: size, rnd: src}
	case "second-chance":
		return newSecondChance(size)
	case "lru":
		return newLRU(size)
	case "fifo":
		return &fifoPolicy{size: size}
	default:
		panic("tlb: unknown replacement policy " + name)
	}
}

// randomPolicy evicts a uniformly random entry (the paper's TLB policy).
type randomPolicy struct {
	size int
	rnd  *rng.Source
}

func (p *randomPolicy) Touch(int) {}

func (p *randomPolicy) Victim() int { return p.rnd.Intn(p.size) }

func (p *randomPolicy) State() []uint64 { return []uint64{p.rnd.State()} }

func (p *randomPolicy) StateLen() int { return 1 }

func (p *randomPolicy) SetState(st []uint64) { p.rnd.SetState(st[0]) }

// secondChance is the classic clock algorithm (the paper's uTLB policy,
// chosen to reduce uWT->WT synchronization transfers).
type secondChance struct {
	ref  []bool
	hand int
}

func newSecondChance(size int) *secondChance {
	return &secondChance{ref: make([]bool, size)}
}

func (p *secondChance) Touch(i int) { p.ref[i] = true }

// advance moves the hand one entry on, wrapping without a division.
func (p *secondChance) advance() {
	if p.hand++; p.hand == len(p.ref) {
		p.hand = 0
	}
}

func (p *secondChance) Victim() int {
	for {
		if !p.ref[p.hand] {
			v := p.hand
			p.advance()
			return v
		}
		p.ref[p.hand] = false
		p.advance()
	}
}

func (p *secondChance) State() []uint64 {
	st := make([]uint64, 1+len(p.ref))
	st[0] = uint64(p.hand)
	for i, r := range p.ref {
		if r {
			st[1+i] = 1
		}
	}
	return st
}

func (p *secondChance) StateLen() int { return 1 + len(p.ref) }

func (p *secondChance) SetState(st []uint64) {
	p.hand = int(st[0])
	for i := range p.ref {
		p.ref[i] = st[1+i] != 0
	}
}

// lruPolicy evicts the least recently touched entry.
type lruPolicy struct {
	stamp []uint64
	clock uint64
}

func newLRU(size int) *lruPolicy { return &lruPolicy{stamp: make([]uint64, size)} }

func (p *lruPolicy) Touch(i int) {
	p.clock++
	p.stamp[i] = p.clock
}

func (p *lruPolicy) Victim() int {
	best, bestStamp := 0, p.stamp[0]
	for i, s := range p.stamp {
		if s < bestStamp {
			best, bestStamp = i, s
		}
	}
	return best
}

func (p *lruPolicy) State() []uint64 {
	st := make([]uint64, 1+len(p.stamp))
	st[0] = p.clock
	copy(st[1:], p.stamp)
	return st
}

func (p *lruPolicy) StateLen() int { return 1 + len(p.stamp) }

func (p *lruPolicy) SetState(st []uint64) {
	p.clock = st[0]
	copy(p.stamp, st[1:])
}

// fifoPolicy evicts entries in insertion rotation order.
type fifoPolicy struct {
	size int
	next int
}

func (p *fifoPolicy) Touch(int) {}

func (p *fifoPolicy) Victim() int {
	v := p.next
	p.next = (p.next + 1) % p.size
	return v
}

func (p *fifoPolicy) State() []uint64 { return []uint64{uint64(p.next)} }

func (p *fifoPolicy) StateLen() int { return 1 }

func (p *fifoPolicy) SetState(st []uint64) { p.next = int(st[0]) }
