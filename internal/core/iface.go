// Package core implements the L1 data memory interfaces the paper compares
// (Tab. I): the energy-oriented Base1ldst (one load or store per cycle, all
// structures single-ported), the performance-oriented Base2ld1st (two loads
// plus one store per cycle via physical multi-porting on top of banking),
// and MALEC itself (page-based memory access grouping through an input
// buffer and arbitration unit, single-ported everything, load merging and
// page-based way determination).
package core

import (
	"malec/internal/buffers"
	"malec/internal/cache"
	"malec/internal/config"
	"malec/internal/energy"
	"malec/internal/mem"
	"malec/internal/rng"
	"malec/internal/stats"
	"malec/internal/tlb"
	"malec/internal/waytable"
)

// Request is a memory operation whose address computation just finished.
type Request struct {
	Seq  uint64
	Kind mem.AccessKind
	VA   mem.Addr
	Size uint8
}

// Completion reports a finished load.
type Completion struct {
	Seq uint64
}

// Interface is the contract between the out-of-order core model and an L1
// data memory interface.
type Interface interface {
	// Name returns the configuration name.
	Name() string
	// TryIssue offers a memory operation this cycle. A false return is a
	// structural stall: the core must retry in a later cycle.
	TryIssue(r Request) bool
	// CommitStore notifies that the store with the given sequence number
	// retired (store buffer -> merge buffer path).
	CommitStore(seq uint64)
	// Tick advances one cycle and returns the loads completing now.
	Tick() []Completion
	// Pending returns the number of loads in flight.
	Pending() int
	// Flush asks the interface to drain write-back state (merge buffer)
	// at the end of simulation.
	Flush()
	// Idle reports whether all internal buffers and queues are empty.
	Idle() bool
	// NextWork reports the earliest cycle strictly after now at which the
	// interface has work to do or state that changes with time: a
	// scheduled load completion, a buffered load awaiting service, a
	// committed store waiting to drain, or an evicted merge-buffer entry
	// awaiting its L1 write. It returns now+1 when work is immediately
	// pending and NoWork when the interface is fully drained. The
	// cycle-skipping core loop fast-forwards stalled stretches to the
	// reported cycle; Ticks over the skipped range are guaranteed no-ops.
	NextWork(now int64) int64

	// Meter exposes the energy meter for final accounting.
	Meter() *energy.Meter
	// Counters exposes event counters.
	Counters() *stats.Counters
	// System exposes the shared memory structures for statistics.
	System() *System
	// Restore returns the interface to the state of a new one for the
	// same configuration whose memory side was then restored from st
	// (System.RestoreState): every buffer, queue and counter starts
	// empty. A snapshot that does not fit returns an error and changes
	// nothing.
	Restore(st *SystemState) error
}

// System bundles the structures every interface variant shares.
type System struct {
	Cfg   config.Config
	Hier  *tlb.Hierarchy
	L1    *cache.L1
	Back  *cache.Backside
	SB    *buffers.StoreBuffer
	MB    *buffers.MergeBuffer
	Det   waytable.Determiner
	PageD *waytable.PageSystem // non-nil when Det is the WT scheme
	WDUD  *waytable.WDU        // non-nil when Det is a WDU

	MeterV *energy.Meter
	Ctr    *stats.Counters

	cycle   int64
	cal     *calendar
	pending int

	// mshr holds the retirement cycles of outstanding misses; when full,
	// a new miss waits for the earliest to retire.
	mshr []int64
	// detector classifies streaming pages for run-time bypassing
	// (nil when disabled).
	detector *cache.StreamDetector

	// warming gates the energy charges inside the L1 fill/evict hooks:
	// the functional-warming fast-forward drives fills and evictions
	// through the same hooks (way-table state must stay coherent) but
	// meters nothing — sampled energy comes from the detailed windows
	// only. Never set on the exact path.
	warming bool

	// fillHook and evictHook are this system's L1 fill/evict hooks,
	// built once; bind installs them in an L1 that several systems
	// share (NewShadows).
	fillHook, evictHook func(pline mem.Addr, set, way int)
}

// NewSystem builds the shared structures for a configuration.
func NewSystem(cfg config.Config) *System {
	s := newCoreSide(cfg)
	src := rng.New(cfg.Seed ^ 0x51a1ec)
	ut := tlb.New("uTLB", cfg.UTLBEntries, tlb.NewPolicy("second-chance", cfg.UTLBEntries, src))
	mt := tlb.New("TLB", cfg.TLBEntries, tlb.NewPolicy("random", cfg.TLBEntries, src.Split()))
	s.Hier = &tlb.Hierarchy{U: ut, Main: mt, PT: tlb.NewPageTable()}
	s.L1 = cache.NewL1()
	s.Back = cache.NewBackside()
	if cfg.Bypass {
		s.detector = cache.NewStreamDetector(256)
	}
	switch cfg.WayDet {
	case config.WayDetPageWT:
		var ps *waytable.PageSystem
		if cfg.WTChunkLines > 0 {
			ps = waytable.NewPageSystemWith(s.Hier,
				segTable("uWT", cfg.UTLBEntries, cfg),
				segTable("WT", cfg.TLBEntries, cfg))
		} else {
			ps = waytable.NewPageSystem(s.Hier)
		}
		ps.FeedbackUpdate = cfg.FeedbackUpdate
		s.PageD = ps
		s.Det = ps
		s.L1.ConstrainWays = cfg.ConstrainWays
	case config.WayDetWDU:
		w := waytable.NewWDU(cfg.WDUEntries, cfg.WDUPorts)
		s.WDUD = w
		s.Det = w
	default:
		s.Det = waytable.None{}
	}
	s.bind()
	return s
}

// newCoreSide builds the per-configuration half of a System: everything
// but the memory side (TLB hierarchy, caches, way determination, stream
// detector), which the caller builds or shares.
func newCoreSide(cfg config.Config) *System {
	s := &System{
		Cfg: cfg,
		SB:  buffers.NewStoreBuffer(cfg.SB),
		MB:  buffers.NewMergeBuffer(cfg.MB),
		MeterV: energy.NewMeter(energy.DefaultParams(), energy.Ports{
			L1ExtraPorts:  cfg.L1ExtraPorts,
			TLBExtraPorts: cfg.TLBExtraPorts,
			HasWayTables:  cfg.WayDet == config.WayDetPageWT,
			WDUEntries:    cfg.WDUEntries,
			WDUPorts:      cfg.WDUPorts,
		}),
		Ctr: stats.NewCounters(),
		// The completion horizon is bounded by the TLB walk, the L1
		// latency and the worst MSHR-induced chain of backside misses;
		// the calendar grows on its own in the rare case a completion
		// lands beyond this estimate.
		cal: newCalendar(cfg.L1Latency + cfg.TLBRefillLatency +
			cfg.WalkLatency + (cfg.MSHRs+2)*64 + 64),
		mshr: make([]int64, 0, cfg.MSHRs+1),
	}
	switch cfg.WayDet {
	case config.WayDetPageWT:
		s.fillHook, s.evictHook = s.onFill, s.onEvict
	case config.WayDetWDU:
		s.fillHook, s.evictHook = s.onFillWDU, s.onEvictWDU
	}
	return s
}

// bind points the memory side at this system: the L1 hooks charge its
// meter, and translations take its TLB refill and walk latencies, which
// are core-side parameters held by the shared hierarchy.
func (s *System) bind() {
	s.L1.OnFill, s.L1.OnEvict = s.fillHook, s.evictHook
	s.Hier.TLBRefillLatency, s.Hier.WalkLatency = s.Cfg.TLBRefillLatency, s.Cfg.WalkLatency
}

// NewShadows builds one interface per configuration over a single memory
// side, for sampled measurement bursts that run one after another. Each
// interface has its own core side (store and merge buffers, calendar,
// MSHRs, meter and counters); the memory side is built once, so its
// footprint does not grow with the number of configurations. The
// configurations must agree on every memory-side parameter (the memory-side
// half of their digest). Only Restore readies an interface for a burst:
// it binds the shared memory side to that interface, then restores it.
func NewShadows(cfgs []config.Config) []Interface {
	out := make([]Interface, len(cfgs))
	var mem *System
	for i, cfg := range cfgs {
		var s *System
		if i == 0 {
			s = NewSystem(cfg)
			mem = s
		} else {
			s = newCoreSide(cfg)
			s.Hier, s.L1, s.Back, s.detector = mem.Hier, mem.L1, mem.Back, mem.detector
			s.Det, s.PageD, s.WDUD = mem.Det, mem.PageD, mem.WDUD
		}
		out[i] = over(s)
	}
	return out
}

// segTable builds a Sec. VI-D segmented way table for a configuration.
func segTable(name string, slots int, cfg config.Config) waytable.Store {
	chunksPerPage := 64 / cfg.WTChunkLines
	pool := int(float64(slots*chunksPerPage) * cfg.WTPoolFraction)
	if pool < 1 {
		pool = 1
	}
	return waytable.NewSegmentedTable(name, slots, cfg.WTChunkLines, pool)
}

// onFill charges and forwards an L1 fill to the page-based way tables.
// Way-table maintenance performs reverse lookups on the physical tag arrays
// of uTLB and TLB and a single-line code update.
func (s *System) onFill(pline mem.Addr, set, way int) {
	if !s.warming {
		s.MeterV.ReverseLookups(true, true)
		s.MeterV.UWTLineUpdate()
	}
	s.PageD.OnFill(pline, set, way)
}

// onEvict charges and forwards an L1 eviction to the way tables.
func (s *System) onEvict(pline mem.Addr, set, way int) {
	if !s.warming {
		s.MeterV.ReverseLookups(true, true)
		s.MeterV.UWTLineUpdate()
	}
	s.PageD.OnEvict(pline, set, way)
}

// onFillWDU forwards fills to the WDU.
func (s *System) onFillWDU(pline mem.Addr, set, way int) {
	if !s.warming {
		s.MeterV.WDUUpdate()
	}
	s.WDUD.OnFill(pline, set, way)
}

// onEvictWDU forwards evictions to the WDU.
func (s *System) onEvictWDU(pline mem.Addr, set, way int) {
	s.WDUD.OnEvict(pline, set, way)
}

// Cycle returns the current cycle number.
func (s *System) Cycle() int64 { return s.cycle }

// advance moves to the next cycle and returns completions due.
func (s *System) advance() []Completion {
	s.cycle++
	due := s.cal.take(s.cycle)
	s.pending -= len(due)
	return due
}

// schedule registers a load completion at the given future cycle.
func (s *System) schedule(seq uint64, at int64) {
	if at <= s.cycle {
		at = s.cycle + 1
	}
	s.cal.schedule(s.cycle, at, Completion{Seq: seq})
	s.pending++
}

// Pending returns in-flight load count.
func (s *System) Pending() int { return s.pending }

// nextWork folds the shared structures' deferred-work state into one
// next-event bound: committed stores awaiting their drain into the merge
// buffer (DrainCommitted acts — or counts a commit stall — every cycle
// while one is at the head), evicted MBEs awaiting an L1 write (serviced
// once per cycle), deferred backside work, and otherwise the calendar's
// next scheduled completion. Interface variants fold their own buffered
// requests on top.
func (s *System) nextWork(now int64) int64 {
	if s.SB.HasCommittedHead() || s.MB.HasDeferredWork() || s.Back.HasDeferredWork() {
		return now + 1
	}
	return s.cal.next(now)
}

// SkipTo advances the current cycle directly to cycle without ticking
// through the range in between. Callers (the cycle-skipping core loop)
// guarantee via NextWork that the skipped cycles hold no scheduled
// completions and no deferred buffer work, so the jump is invisible to the
// simulated machine; because jumps never pass the next scheduled
// completion, the calendar's lap invariant (every slot is drained before
// its cycle comes around again) is preserved.
func (s *System) SkipTo(cycle int64) {
	if cycle > s.cycle {
		s.cycle = cycle
	}
}

// translate resolves one virtual page through the TLB hierarchy, charging
// the appropriate lookup energies, and returns the physical page plus extra
// latency.
func (s *System) translate(vpage mem.PageID) (res tlb.Result) {
	res = s.Hier.Translate(vpage)
	s.MeterV.UTLBLookup()
	s.Ctr.Inc(stats.CtrUTLBLookups)
	switch res.Level {
	case tlb.LevelTLB:
		s.MeterV.TLBLookup()
		s.Ctr.Inc(stats.CtrTLBLookups)
	case tlb.LevelWalk:
		s.MeterV.TLBLookup()
		s.Ctr.Inc(stats.CtrTLBLookups)
		s.Ctr.Inc(stats.CtrTLBWalks)
	}
	return res
}

// loadAccess performs the L1 side of a load whose translation produced pa,
// charging energy and returning the total extra latency beyond the base L1
// latency (0 for a hit). wayKnown/way come from way determination.
func (s *System) loadAccess(pa mem.Addr, way int, wayKnown bool, uIdx int) (extraLat int) {
	if wayKnown {
		s.L1.ReadReduced(pa, way)
		s.MeterV.L1ReducedRead()
		s.Ctr.Inc(stats.CtrL1ReducedReads)
		if s.detector != nil {
			s.detector.Observe(pa.Page(), false)
		}
		return 0
	}
	hitWay, hit := s.L1.ReadConventional(pa)
	bypassed := false
	if s.detector != nil && !hit {
		bypassed = s.detector.ShouldBypass(pa.Page())
	}
	if s.detector != nil && !bypassed {
		s.detector.Observe(pa.Page(), !hit)
	}
	s.MeterV.L1ConventionalRead(s.L1.Ways())
	s.Ctr.Inc(stats.CtrL1ConventionalReads)
	if hit {
		// Last-entry feedback: learn the observed way.
		s.Det.Feedback(pa, uIdx, hitWay)
		if s.PageD != nil && s.Cfg.FeedbackUpdate {
			s.MeterV.UWTLineUpdate()
		} else if s.WDUD != nil {
			s.MeterV.WDUUpdate()
		}
		return 0
	}
	// Miss: fetch from the backside and fill (unless the page's region is
	// classified as streaming and bypassing is enabled).
	s.Ctr.Inc(stats.CtrL1LoadMisses)
	if bypassed {
		s.Ctr.Inc(stats.CtrL1BypassedFills)
		return s.missLatency(pa)
	}
	lat := s.missLatency(pa)
	s.fill(pa)
	return lat
}

// missLatency services an L1 miss through the backside, modelling a
// bounded set of miss status holding registers: when all MSHRs are in
// flight the new miss additionally waits for the earliest one to retire.
func (s *System) missLatency(pa mem.Addr) int {
	lat := s.Back.Miss(pa)
	now := s.cycle
	live := s.mshr[:0]
	for _, c := range s.mshr {
		if c > now {
			live = append(live, c)
		}
	}
	s.mshr = live
	wait := 0
	if len(s.mshr) >= s.Cfg.MSHRs && s.Cfg.MSHRs > 0 {
		earliestIdx := 0
		for i, c := range s.mshr {
			if c < s.mshr[earliestIdx] {
				earliestIdx = i
			}
		}
		if w := int(s.mshr[earliestIdx] - now); w > 0 {
			wait = w
			s.Ctr.Inc(stats.CtrL1MSHRStalls)
		}
		s.mshr = append(s.mshr[:earliestIdx], s.mshr[earliestIdx+1:]...)
	}
	total := wait + lat
	s.mshr = append(s.mshr, now+int64(total))
	return total
}

// fill allocates pa's line in the L1, charging fill/eviction energy and
// forwarding any dirty victim.
func (s *System) fill(pa mem.Addr) {
	_, victim, wb := s.L1.Fill(pa)
	s.MeterV.L1Fill()
	s.Ctr.Inc(stats.CtrL1Fills)
	if wb {
		s.MeterV.L1Eviction()
		s.Back.Writeback(victim)
		s.Ctr.Inc(stats.CtrL1Writebacks)
	}
}

// mbeWrite performs the L1 write of an evicted merge buffer entry with a
// translated physical line address. Way determination may allow a reduced
// (tag-bypassing) store.
func (s *System) mbeWrite(pline mem.Addr, uIdx int) {
	way, known := s.Det.Lookup(pline, uIdx)
	if known {
		s.L1.WriteReduced(pline, way)
		s.MeterV.L1ReducedWrite()
		s.Ctr.Inc(stats.CtrL1ReducedWrites)
		return
	}
	hitWay, hit := s.L1.Write(pline)
	s.MeterV.L1Write(s.L1.Ways())
	s.Ctr.Inc(stats.CtrL1ConventionalWrites)
	if hit {
		s.Det.Feedback(pline, uIdx, hitWay)
		return
	}
	// Write-allocate: fill then mark dirty.
	s.Ctr.Inc(stats.CtrL1StoreMisses)
	s.missLatency(pline)
	s.fill(pline)
	s.L1.MarkDirty(pline)
}

// forwardCheck consults SB and MB for load forwarding. SB/MB lookup energy
// is excluded by the paper's methodology ("very similar for all analyzed
// configurations").
func (s *System) forwardCheck(va mem.Addr, size uint8) bool {
	if full, _ := s.SB.Forward(va, size); full {
		s.Ctr.Inc(stats.CtrSBForwards)
		return true
	}
	if s.MB.Forward(va, size) {
		s.Ctr.Inc(stats.CtrMBForwards)
		return true
	}
	return false
}

// drainStores moves committed SB entries into the MB.
func (s *System) drainStores() { s.SB.DrainCommitted(s.MB) }

// Idle reports whether nothing is in flight anywhere.
func (s *System) Idle() bool {
	return s.pending == 0 && s.SB.Len() == 0 && s.MB.Len() == 0 &&
		s.MB.PendingMBEs() == 0
}

// Flush force-evicts merge buffer contents for end-of-run draining.
func (s *System) Flush() { s.MB.Drain() }
