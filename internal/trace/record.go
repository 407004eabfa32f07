// Package trace models dynamic instruction traces for the MALEC simulator:
// the record format, a compact binary codec, and a deterministic synthetic
// workload generator with one parameter profile per benchmark the paper
// evaluates (SPEC CPU2000 INT/FP and MediaBench2).
//
// The paper drives gem5 with SimPoint-selected 1-billion-instruction phases
// of SPEC CPU2000 and MediaBench2. Those traces are proprietary; following
// the substitution rule, this package generates synthetic traces whose
// first-order statistics (memory-instruction ratio, load/store ratio, page
// and line locality, working-set size, dependency density) are tuned per
// benchmark to the values the paper reports or implies.
package trace

import (
	"fmt"

	"malec/internal/mem"
)

// Kind classifies a trace record.
type Kind uint8

// Record kinds. Op covers every non-memory instruction (ALU, branch, ...):
// the memory interface under study never inspects them, they only occupy
// pipeline slots and carry dependencies.
const (
	Op Kind = iota
	Load
	Store
	// Branch is a conditional control transfer. Mispredicted branches
	// stall dispatch until they resolve, the dominant ILP limiter in
	// real out-of-order cores.
	Branch
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case Op:
		return "op"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one dynamic instruction. Its fields are ordered largest first
// so that a Record packs into 16 bytes with no padding: the trace-cache
// arenas, cpu.GenSource's ring and every ROB entry hold records by value.
type Record struct {
	// Addr is the virtual byte address for Load/Store records.
	Addr mem.Addr
	// Dep1 and Dep2 are backwards distances (in dynamic instructions) to
	// producer instructions this record depends on; 0 means no dependency.
	// The out-of-order core model delays issue until producers complete.
	// uint16 is wide enough: the generator caps distances at MaxDepWindow
	// and the cpu's completion window is smaller than 1<<16.
	Dep1 uint16
	Dep2 uint16
	Kind Kind
	// Size is the access size in bytes for Load/Store records (1..16).
	Size uint8
	// Mispredict marks a branch whose direction was mispredicted: the
	// front end stalls until the branch resolves (its producers
	// complete), then pays the refill penalty.
	Mispredict bool
}

// IsMem reports whether the record is a memory reference.
func (r Record) IsMem() bool { return r.Kind == Load || r.Kind == Store }

// Access converts a memory record to a mem.Access with the given sequence
// number. It panics on non-memory records.
func (r Record) Access(seq uint64) mem.Access {
	var k mem.AccessKind
	switch r.Kind {
	case Load:
		k = mem.Load
	case Store:
		k = mem.Store
	default:
		panic("trace: Access on non-memory record")
	}
	return mem.Access{Seq: seq, Kind: k, VA: r.Addr, Size: r.Size}
}

// Stats summarizes a trace.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
}

// MemRatio returns the fraction of instructions that are memory references.
func (s Stats) MemRatio() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Loads+s.Stores) / float64(s.Instructions)
}

// LoadStoreRatio returns loads per store (0 if no stores).
func (s Stats) LoadStoreRatio() float64 {
	if s.Stores == 0 {
		return 0
	}
	return float64(s.Loads) / float64(s.Stores)
}

// Observe updates the stats with one record.
func (s *Stats) Observe(r Record) {
	s.Instructions++
	switch r.Kind {
	case Load:
		s.Loads++
	case Store:
		s.Stores++
	}
}
