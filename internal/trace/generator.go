package trace

import (
	"malec/internal/mem"
	"malec/internal/rng"
)

// Profile parameterizes the synthetic workload generator for one benchmark.
// The fields map directly onto the trace statistics the paper's mechanisms
// are sensitive to (Sec. III): memory-instruction ratio, load/store mix,
// page/line locality, working-set size and dependency density.
type Profile struct {
	Name  string // benchmark name, e.g. "gzip"
	Suite string // "spec-int", "spec-fp" or "mb2"

	// MemRatio is the fraction of instructions that are memory references
	// (paper average: 0.40; SPEC-INT 0.45, MB2 0.37).
	MemRatio float64
	// LoadFrac is the fraction of memory references that are loads
	// (paper average: 2/3, i.e. a 2:1 load/store ratio).
	LoadFrac float64

	// NumStreams is the number of concurrently walked access streams.
	// Interleaving streams produces the "n intermediate accesses to a
	// different page" structure of Fig. 1.
	NumStreams int
	// StreamSwitchProb is the per-reference probability of switching the
	// active stream.
	StreamSwitchProb float64
	// StreamStride is the byte distance of a sequential step within a
	// stream. Line-sized or larger strides reduce intra-line locality
	// (e.g. mgrid).
	StreamStride int
	// StreamRegionPages is the number of pages each stream cycles
	// through (its hot region). Small regions mean pages are revisited
	// while still TLB-resident, which page-based way determination
	// exploits; regions far beyond the 64-entry TLB reach (mcf, art)
	// defeat it.
	StreamRegionPages int
	// SamePageProb is the probability that a stream reference stays within
	// its current page rather than advancing to another page.
	SamePageProb float64
	// SameLineProb is the probability that an intra-page reference stays
	// within the previously accessed line (drives load merging, 46% of
	// loads are followed by a same-line load on average in the paper).
	SameLineProb float64
	// SeqPageProb is the probability that a page change moves to the next
	// sequential page of the stream (vs a random working-set page).
	SeqPageProb float64
	// RandomFrac is the fraction of references that jump to a uniformly
	// random address in the working set, modelling pointer chasing (mcf).
	RandomFrac float64
	// WorkingSetPages is the number of distinct 4 KByte pages the
	// benchmark touches. The 32 KByte L1 holds 8 pages worth of data.
	WorkingSetPages int

	// LoadDepProb is the probability that a non-memory instruction depends
	// on the most recent load (couples ALU progress to load latency).
	LoadDepProb float64
	// MemDepProb is the probability that a load's address depends on a
	// recent load (serializing, pointer chasing).
	MemDepProb float64
	// DepWindow bounds how far back dependencies reach, in instructions.
	DepWindow int
	// AluChainProb is the probability that a non-memory instruction
	// extends a short ALU dependency chain (distance 1-2). It is the
	// main instruction-level-parallelism throttle: higher values lower
	// the dependency-bound IPC.
	AluChainProb float64
	// BranchRatio is the fraction of non-memory instructions that are
	// conditional branches.
	BranchRatio float64
	// MispredictProb is the per-branch misprediction probability. A
	// mispredicted branch stalls the front end until it resolves, which
	// makes load latency visible when the branch depends on a load.
	MispredictProb float64
	// BranchLoadDepProb is the probability a branch tests a recently
	// loaded value (its resolution then waits for the load).
	BranchLoadDepProb float64

	// WideAccessFrac is the fraction of memory references that are 16 byte
	// (128 bit SIMD-style) accesses; the rest are 4 or 8 bytes.
	WideAccessFrac float64
}

// MaxDepWindow is the largest dependency window a profile may use. The
// simulator keeps completion times in a fixed ring indexed by sequence
// number (cpu.doneWindow); bounding how far back a dependency can reach is
// one half of the aliasing-freedom invariant (the other is the ROB bound
// cpu.Run validates), so sanitized clamps DepWindow here.
const MaxDepWindow = 512

// sanitized returns a copy of p with zero fields replaced by safe defaults.
func (p Profile) sanitized() Profile {
	if p.NumStreams <= 0 {
		p.NumStreams = 1
	}
	if p.StreamStride <= 0 {
		p.StreamStride = 8
	}
	if p.StreamRegionPages <= 0 {
		p.StreamRegionPages = 6
	}
	if p.WorkingSetPages <= 0 {
		p.WorkingSetPages = 64
	}
	if p.DepWindow <= 0 {
		p.DepWindow = 32
	}
	if p.DepWindow > MaxDepWindow {
		p.DepWindow = MaxDepWindow
	}
	if p.LoadFrac <= 0 {
		p.LoadFrac = 2.0 / 3.0
	}
	if p.AluChainProb <= 0 {
		p.AluChainProb = 0.75
	}
	if p.BranchRatio <= 0 {
		p.BranchRatio = 0.17
	}
	return p
}

// stream is one generator access stream.
type stream struct {
	cur      mem.Addr // last address issued by this stream
	basePage uint32   // stream's region origin within the working set
	region   uint32   // pages the stream cycles through
}

// chances holds a profile's probabilities precomputed for rng.Draw, which
// draws bit-identically to rng.Bool on the same probability.
type chances struct {
	mem, load, branch, loadDep, aluChain, mispredict, branchLoadDep,
	memDep, random, streamSwitch, samePage, sameLine, seqPage, wide,
	storeSamePage, storeSameLine rng.Chance
}

// half is the fair coin of the store-dependency and access-size draws.
var half = rng.NewChance(0.5)

func newChances(p Profile) chances {
	return chances{
		mem:           rng.NewChance(p.MemRatio),
		load:          rng.NewChance(p.LoadFrac),
		branch:        rng.NewChance(p.BranchRatio),
		loadDep:       rng.NewChance(p.LoadDepProb),
		aluChain:      rng.NewChance(p.AluChainProb),
		mispredict:    rng.NewChance(p.MispredictProb),
		branchLoadDep: rng.NewChance(p.BranchLoadDepProb),
		memDep:        rng.NewChance(p.MemDepProb),
		random:        rng.NewChance(p.RandomFrac),
		streamSwitch:  rng.NewChance(p.StreamSwitchProb),
		samePage:      rng.NewChance(p.SamePageProb),
		sameLine:      rng.NewChance(p.SameLineProb),
		seqPage:       rng.NewChance(p.SeqPageProb),
		wide:          rng.NewChance(p.WideAccessFrac),
		// Stores walk a stream with elevated locality ("stores show an
		// even higher spatial locality", Sec. III).
		storeSamePage: rng.NewChance(min(p.SamePageProb+0.15, 0.98)),
		storeSameLine: rng.NewChance(min(p.SameLineProb+0.2, 0.9)),
	}
}

// Generator produces a deterministic synthetic instruction trace for a
// profile. It implements a pull model: call Fill (or Next) for each
// record.
type Generator struct {
	prof    Profile
	p       chances
	rnd     rng.Source
	streams []stream
	active  int
	idx     uint64 // dynamic instruction index of the next record

	lastLoadIdx uint64 // dynamic index of the most recent load
	haveLoad    bool
	storeStream stream

	// lineBaseIdx is the dynamic index of the load that opened the
	// current same-line run (the "pointer" load whose result the
	// follower field accesses depend on). Follower loads depend on it —
	// not on each other — so they become ready together and are
	// mergeable by MALEC's arbitration unit.
	lineBaseIdx  uint64
	lastLoadAddr mem.Addr
}

// NewGenerator returns a generator for prof seeded with seed. The same
// (prof, seed) pair always yields the identical trace.
func NewGenerator(prof Profile, seed uint64) *Generator {
	prof = prof.sanitized()
	g := &Generator{
		prof: prof,
		p:    newChances(prof),
		rnd:  *rng.New(seed ^ hashName(prof.Name)),
	}
	// Spread stream origins over the working set so streams touch
	// disjoint regions, as independent data structures would.
	region := uint32(prof.StreamRegionPages)
	if int(region) > prof.WorkingSetPages {
		region = uint32(prof.WorkingSetPages)
	}
	g.streams = make([]stream, 0, prof.NumStreams)
	for i := 0; i < prof.NumStreams; i++ {
		base := g.regionBase(region)
		a := mem.MakeAddr(mem.PageID(base), uint32(g.rnd.Intn(mem.PageSize))&^7)
		g.streams = append(g.streams, stream{cur: a, basePage: base, region: region})
	}
	// Stores get their own, tighter hot region ("stores show an even
	// higher spatial locality").
	sregion := region/2 + 1
	base := g.regionBase(sregion)
	g.storeStream = stream{cur: mem.MakeAddr(mem.PageID(base), 0),
		basePage: base, region: sregion}
	return g
}

// regionBase picks a region origin that fits inside the working set.
func (g *Generator) regionBase(region uint32) uint32 {
	span := g.prof.WorkingSetPages - int(region)
	if span <= 0 {
		return 0
	}
	return uint32(g.rnd.Intn(span))
}

// hashName gives each benchmark its own seed offset (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// Next produces the next trace record.
func (g *Generator) Next() Record {
	var r Record
	g.Fill(&r)
	return r
}

// Fill overwrites *r with the next trace record. Writing in place keeps
// the 16-byte record from being copied out through each level of the
// record-kind helpers.
func (g *Generator) Fill(r *Record) {
	*r = Record{}
	// The index increment is explicit rather than deferred: Fill runs once
	// per simulated instruction, and a deferred closure costs more than
	// the record generation itself on short-record kinds.
	if !g.rnd.Draw(g.p.mem) {
		g.fillOp(r)
	} else if g.rnd.Draw(g.p.load) {
		g.fillLoad(r)
	} else {
		g.fillStore(r)
	}
	g.idx++
}

// Generate produces n records.
func (g *Generator) Generate(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		g.Fill(&out[i])
	}
	return out
}

// fillOp generates a non-memory instruction (ALU op or branch), possibly
// dependent on the most recent load (address/branch computation fed by
// loads).
func (g *Generator) fillOp(r *Record) {
	if g.rnd.Draw(g.p.branch) {
		g.fillBranch(r)
		return
	}
	r.Kind = Op
	if g.haveLoad && g.rnd.Draw(g.p.loadDep) {
		r.Dep1 = g.depDistance(g.lastLoadIdx)
	}
	// Short ALU chains: many ops depend on an immediately preceding op.
	if g.idx > 0 && g.rnd.Draw(g.p.aluChain) {
		r.Dep2 = 1 // hard chain: serializes at one op per cycle
	}
}

// fillBranch generates a conditional branch. Branches frequently test
// loaded values, tying front-end stalls to load latency.
func (g *Generator) fillBranch(r *Record) {
	r.Kind = Branch
	r.Mispredict = g.rnd.Draw(g.p.mispredict)
	if g.haveLoad && g.rnd.Draw(g.p.branchLoadDep) {
		r.Dep1 = g.depDistance(g.lastLoadIdx)
	}
	if r.Dep1 == 0 && g.idx > 0 {
		r.Dep2 = 1 // compare result computed just before the branch
	}
}

// fillLoad generates a load record. Loads that stay within the line opened
// by an earlier load model structure-field accesses: they depend on that
// base load (the pointer), not on one another, so they can issue in the
// same cycle and be merged. Loads opening a new line may depend on the most
// recent load (pointer chasing) with MemDepProb.
func (g *Generator) fillLoad(r *Record) {
	addr := g.nextAddr()
	r.Kind, r.Addr, r.Size = Load, addr, g.accessSize()
	if g.haveLoad && mem.SameLine(addr, g.lastLoadAddr) {
		r.Dep1 = g.depDistance(g.lineBaseIdx)
	} else {
		g.lineBaseIdx = g.idx
		if g.haveLoad && g.rnd.Draw(g.p.memDep) {
			r.Dep1 = g.depDistance(g.lastLoadIdx)
		}
	}
	g.lastLoadIdx = g.idx
	g.lastLoadAddr = addr
	g.haveLoad = true
}

// fillStore generates a store record. Stores follow a single dedicated
// stream with elevated locality.
func (g *Generator) fillStore(r *Record) {
	s := &g.storeStream
	g.advance(s, g.p.storeSamePage, g.p.storeSameLine)
	r.Kind, r.Addr, r.Size = Store, s.cur, g.accessSize()
	if g.haveLoad && g.rnd.Draw(half) {
		r.Dep1 = g.depDistance(g.lastLoadIdx) // store data frequently comes from a load
	}
}

// nextAddr draws the next load address from the stream model.
func (g *Generator) nextAddr() mem.Addr {
	if g.rnd.Draw(g.p.random) {
		page := mem.PageID(g.rnd.Intn(g.prof.WorkingSetPages))
		off := uint32(g.rnd.Intn(mem.PageSize)) &^ 7
		return mem.MakeAddr(page, off)
	}
	if g.rnd.Draw(g.p.streamSwitch) && len(g.streams) > 1 {
		g.active = g.rnd.Intn(len(g.streams))
	}
	s := &g.streams[g.active]
	g.advance(s, g.p.samePage, g.p.sameLine)
	return s.cur
}

// advance moves a stream to its next address.
func (g *Generator) advance(s *stream, samePage, sameLine rng.Chance) {
	cur := s.cur
	switch {
	case g.rnd.Draw(sameLine):
		// Stay within the current line: wiggle the low offset.
		delta := uint32(g.rnd.Intn(mem.LineSize)) &^ 3
		s.cur = cur.LineAddr() + mem.Addr(delta)
	case g.rnd.Draw(samePage):
		// Advance within the page by the stream stride.
		next := cur + mem.Addr(g.prof.StreamStride)
		if next.Page() != cur.Page() {
			// Wrap within the page to preserve intra-page locality.
			next = mem.MakeAddr(cur.Page(), next.PageOffset())
		}
		s.cur = next
	case g.rnd.Draw(g.p.seqPage):
		// Advance to the next page of the stream's hot region
		// (cyclic), so region pages are revisited while TLB-resident.
		rel := (uint32(cur.Page()) - s.basePage + 1) % s.region
		s.cur = mem.MakeAddr(mem.PageID(s.basePage+rel), cur.PageOffset())
	default:
		// Jump to a random page of the hot region, keeping an aligned
		// offset so subsequent strides behave.
		page := s.basePage + uint32(g.rnd.Intn(int(s.region)))
		off := uint32(g.rnd.Intn(mem.PageSize)) &^ 7
		s.cur = mem.MakeAddr(mem.PageID(page), off)
	}
}

// accessSize draws an access size: 16 bytes with WideAccessFrac, otherwise
// 4 or 8 bytes.
func (g *Generator) accessSize() uint8 {
	if g.rnd.Draw(g.p.wide) {
		return 16
	}
	if g.rnd.Draw(half) {
		return 8
	}
	return 4
}

// depDistance converts a producer's dynamic index into a backwards distance
// bounded by the profile's dependency window; 0 means "unusable".
func (g *Generator) depDistance(producer uint64) uint16 {
	d := g.idx - producer
	if d == 0 || d > uint64(g.prof.DepWindow) {
		return 0
	}
	return uint16(d)
}
