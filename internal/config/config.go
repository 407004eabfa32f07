// Package config defines the simulated machine configurations: the
// processor/core parameters of Tab. II and the L1 interface variants of
// Tab. I, including the 1- and 3-cycle L1 latency variations of Fig. 4 and
// the WDU substitutions of Sec. VI-C.
package config

// InterfaceKind selects the L1 interface microarchitecture.
type InterfaceKind int

// Interface kinds (Tab. I rows).
const (
	// KindBase1 is Base1ldst: one load or store per cycle, single-ported
	// uTLB/TLB and cache.
	KindBase1 InterfaceKind = iota
	// KindBase2 is Base2ld1st: two loads plus one store per cycle via
	// physical multi-porting (uTLB/TLB 1 rd/wt + 2 rd; cache 1 rd/wt +
	// 1 rd) in addition to banking.
	KindBase2
	// KindMALEC is the proposed interface: one load plus two load/store
	// address computations per cycle, all structures single-ported, one
	// page serviced per cycle.
	KindMALEC
)

// String names the interface kind.
func (k InterfaceKind) String() string {
	switch k {
	case KindBase1:
		return "base1ldst"
	case KindBase2:
		return "base2ld1st"
	case KindMALEC:
		return "malec"
	default:
		return "unknown"
	}
}

// WayDetKind selects the way determination scheme.
type WayDetKind int

// Way determination kinds.
const (
	// WayDetNone performs conventional accesses only.
	WayDetNone WayDetKind = iota
	// WayDetPageWT uses the paper's WT/uWT page-based scheme.
	WayDetPageWT
	// WayDetWDU uses the adapted Way Determination Unit (Sec. VI-C).
	WayDetWDU
)

// Config fully describes one simulated machine.
type Config struct {
	Name string
	Kind InterfaceKind
	Seed uint64

	// Address computation units available per cycle (Tab. I).
	AGULoads  int // slots usable by loads
	AGUStores int // slots usable by stores
	AGUTotal  int // total slots

	// L1 access latency in cycles (Tab. II: 2; variants use 1 and 3).
	L1Latency int

	// L1 service constraints.
	MaxLoadsPerCycle  int // result buses (MALEC: 4; Base2: 2; Base1: 1)
	MaxWritesPerCycle int // MBE writes per cycle
	CarriedLoads      int // MALEC input buffer carried-load storage
	// MergeWindowBytes is the load-merge granularity: 16 (a single
	// 128-bit sub-block), 32 (two adjacent sub-blocks returned per read,
	// the paper's scheme that "doubles the probability for loads to be
	// merged"), or 64 (idealized whole-line sharing).
	MergeWindowBytes  int
	MergeCompareLimit int // loads compared after the initial entry (3)

	// Way determination.
	WayDet         WayDetKind
	WDUEntries     int
	WDUPorts       int
	ConstrainWays  bool // 3-of-4 way allocation for WT encodability
	FeedbackUpdate bool // last-entry register uWT update path
	// WTChunkLines > 0 enables the segmented way tables suggested in
	// Sec. VI-D: chunks of this many lines, allocated FIFO from a shared
	// pool sized by WTPoolFraction of the full-table chunk count.
	WTChunkLines   int
	WTPoolFraction float64

	// Core parameters (Tab. II).
	ROB         int
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	LQ, SB, MB  int

	// MSHRs bounds outstanding L1 misses (miss status holding
	// registers); further misses stall until one retires.
	MSHRs int
	// Bypass enables run-time cache bypassing (Sec. VI-D): loads to
	// pages classified as streaming skip L1 allocation and way-table
	// maintenance. engine.ConfigDigest splices retired fields back in
	// just before this one, so it must stay the field after MSHRs.
	Bypass bool

	// Translation hierarchy.
	TLBEntries       int
	UTLBEntries      int
	TLBRefillLatency int
	WalkLatency      int

	// Physical port counts beyond single-ported, for the energy model.
	L1ExtraPorts  int
	TLBExtraPorts int

	// Sampling, when non-nil, switches the run to SMARTS-style interval
	// sampling: the trace functionally warms the memory side (caches,
	// TLBs, way tables, page table) between detailed measurement windows,
	// and cycles/energy are extrapolated from the windows with confidence
	// intervals. This changes simulated results (they become estimates), so
	// it participates in the config digest; the exact path (Sampling ==
	// nil) remains the differential reference. The field is a pointer with
	// omitempty so every existing config marshals byte-identically and
	// keeps its cache key.
	Sampling *Sampling `json:",omitempty"`
}

// MemSide is the subset of Config that determines the functional-warming
// trajectory: the structures a warmed snapshot covers (caches, TLBs, page
// table, way tables, stream detector) and the RNG seed driving their
// replacement policies. Core-side parameters — pipeline widths, latencies,
// buffer depths, energy ports, the sampling schedule itself — are
// excluded, which is what lets a core-side parameter sweep warm up once:
// a sampled pass warms one primary per distinct MemSide.
type MemSide struct {
	Seed           uint64
	TLBEntries     int
	UTLBEntries    int
	WayDet         WayDetKind
	WDUEntries     int
	WDUPorts       int
	ConstrainWays  bool
	FeedbackUpdate bool
	WTChunkLines   int
	WTPoolFraction float64
	Bypass         bool
}

// MemSide returns c's memory-side identity.
func (c Config) MemSide() MemSide {
	return MemSide{
		Seed:           c.Seed,
		TLBEntries:     c.TLBEntries,
		UTLBEntries:    c.UTLBEntries,
		WayDet:         c.WayDet,
		WDUEntries:     c.WDUEntries,
		WDUPorts:       c.WDUPorts,
		ConstrainWays:  c.ConstrainWays,
		FeedbackUpdate: c.FeedbackUpdate,
		WTChunkLines:   c.WTChunkLines,
		WTPoolFraction: c.WTPoolFraction,
		Bypass:         c.Bypass,
	}
}

// Sampling is the (warmup, detail, interval) schedule of one sampled run.
// Each interval of Interval instructions ends with a measurement burst:
// Warmup instructions run on the detailed core to absorb cold-start
// transients, then Detail instructions are measured. Everything outside
// the burst is functionally warmed only. Warmup+Detail must not exceed
// Interval; runs shorter than one interval fall back to the exact path.
type Sampling struct {
	Warmup   int
	Detail   int
	Interval int
}

// DefaultSampling returns the default schedule used by the -sample flags:
// 1% detail (2k warmup + 8k detail per 1M instructions). At 5M
// instructions (five windows) it measured cycle errors of up to 5.0%, of
// either sign, against exact runs of the Fig. 4 configurations on gzip,
// mcf, gap, equake, djpeg and ptrchase (ROADMAP item 1).
func DefaultSampling() *Sampling {
	return &Sampling{Warmup: 2000, Detail: 8000, Interval: 1_000_000}
}

// Valid reports whether the schedule is internally consistent. The
// burst bound is checked as Detail <= Interval-Warmup, which cannot
// overflow once the signs are known: Warmup+Detail could wrap negative
// and pass.
func (s *Sampling) Valid() bool {
	return s.Warmup >= 0 && s.Detail > 0 && s.Interval > 0 &&
		s.Warmup <= s.Interval && s.Detail <= s.Interval-s.Warmup
}

// tabII fills the processor and memory parameters shared by every
// configuration (Tab. II).
func tabII(c Config) Config {
	c.ROB = 168
	c.FetchWidth = 6
	c.IssueWidth = 8
	c.CommitWidth = 6
	c.LQ = 40
	c.SB = 24
	c.MB = 4
	c.MSHRs = 8
	c.TLBEntries = 64
	c.UTLBEntries = 16
	c.TLBRefillLatency = 2
	c.WalkLatency = 20
	if c.L1Latency == 0 {
		c.L1Latency = 2
	}
	return c
}

// Base1ldst returns the energy-oriented baseline: one load or store per
// cycle, single-ported everywhere.
func Base1ldst() Config {
	return tabII(Config{
		Name:              "Base1ldst",
		Kind:              KindBase1,
		AGULoads:          1,
		AGUStores:         1,
		AGUTotal:          1,
		MaxLoadsPerCycle:  1,
		MaxWritesPerCycle: 1,
		WayDet:            WayDetNone,
	})
}

// Base2ld1st returns the performance-oriented baseline: 2 loads + 1 store
// per cycle using physical multi-porting plus banking.
func Base2ld1st() Config {
	return tabII(Config{
		Name:              "Base2ld1st",
		Kind:              KindBase2,
		AGULoads:          2,
		AGUStores:         1,
		AGUTotal:          3,
		MaxLoadsPerCycle:  2,
		MaxWritesPerCycle: 1,
		WayDet:            WayDetNone,
		L1ExtraPorts:      1,
		TLBExtraPorts:     2,
	})
}

// Base2ld1st1cycleL1 is the 1-cycle L1 variant of Base2ld1st (a best-case
// energy scenario per the paper: same slow low-energy transistors, no extra
// circuitry for the parallel TLB+L1 lookup accounted).
func Base2ld1st1cycleL1() Config {
	c := Base2ld1st()
	c.Name = "Base2ld1st_1cycleL1"
	c.L1Latency = 1
	return c
}

// MALEC returns the proposed interface as evaluated (Tab. I): 1 ld + 2
// ld/st address computations, single-ported structures, up to 4 loads
// serviced per cycle via banking and merging, WT/uWT way determination.
func MALEC() Config {
	return tabII(Config{
		Name:              "MALEC",
		Kind:              KindMALEC,
		AGULoads:          3,
		AGUStores:         2,
		AGUTotal:          3,
		MaxLoadsPerCycle:  4,
		MaxWritesPerCycle: 1,
		CarriedLoads:      2,
		MergeWindowBytes:  32,
		MergeCompareLimit: 3,
		WayDet:            WayDetPageWT,
		ConstrainWays:     true,
		FeedbackUpdate:    true,
	})
}

// MALEC3cycleL1 is the 3-cycle L1 latency variant of MALEC.
func MALEC3cycleL1() Config {
	c := MALEC()
	c.Name = "MALEC_3cycleL1"
	c.L1Latency = 3
	return c
}

// MALECWithWDU replaces the way tables with an n-entry WDU (Sec. VI-C).
// Supporting four parallel loads requires four associative lookup ports.
func MALECWithWDU(entries int) Config {
	c := MALEC()
	c.Name = "MALEC_WDU" + itoa(entries)
	c.WayDet = WayDetWDU
	c.WDUEntries = entries
	c.WDUPorts = 4
	c.ConstrainWays = false
	return c
}

// MALECNoWayDet disables way determination entirely (ablation).
func MALECNoWayDet() Config {
	c := MALEC()
	c.Name = "MALEC_noWT"
	c.WayDet = WayDetNone
	c.ConstrainWays = false
	return c
}

// MALECNoFeedback disables the last-entry register update (Sec. V reports
// coverage dropping from 94% to 75%).
func MALECNoFeedback() Config {
	c := MALEC()
	c.Name = "MALEC_noFeedback"
	c.FeedbackUpdate = false
	return c
}

// MALECNoMerge disables load merging (Sec. VI-B attributes ~21% of the
// speedup and the mcf energy win to merging).
func MALECNoMerge() Config {
	c := MALEC()
	c.Name = "MALEC_noMerge"
	c.MergeCompareLimit = 0
	c.MergeWindowBytes = 0
	return c
}

// MALECBypass enables run-time cache bypassing on top of MALEC, the
// Sec. VI-D suggestion for streaming workloads (mcf, art) where way
// determination yields negative energy benefits and way-table maintenance
// causes TLB pressure.
func MALECBypass() Config {
	c := MALEC()
	c.Name = "MALEC_bypass"
	c.Bypass = true
	return c
}

// MALECSegmentedWT enables the Sec. VI-D segmented way tables: chunkLines
// lines per chunk, with a shared pool holding poolFraction of the chunks a
// full table would need.
func MALECSegmentedWT(chunkLines int, poolFraction float64) Config {
	c := MALEC()
	c.Name = "MALEC_segWT"
	c.WTChunkLines = chunkLines
	c.WTPoolFraction = poolFraction
	return c
}

// Fig4Configs returns the five configurations of Fig. 4 in plotting order.
func Fig4Configs() []Config {
	return []Config{
		Base1ldst(),
		Base2ld1st1cycleL1(),
		Base2ld1st(),
		MALEC(),
		MALEC3cycleL1(),
	}
}

// itoa is a dependency-free int -> string (avoids strconv for one use).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
