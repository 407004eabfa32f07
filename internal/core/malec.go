package core

import (
	"malec/internal/config"
	"malec/internal/energy"
	"malec/internal/mem"
	"malec/internal/stats"
)

// Malec implements the proposed interface (Fig. 2): loads finishing address
// computation enter the input buffer; each cycle the virtual page ID of the
// highest-priority entry is translated (a single uTLB/TLB lookup shared by
// the whole group) and simultaneously compared against the remaining
// entries; the arbitration unit distributes the matching group over the
// four single-ported cache banks, merges loads to the same 32 byte
// two-sub-block window, limits service to four result buses, and attaches
// way information from the uWT entry returned by the translation.
//
// Stores bypass the input buffer: they sit in the SB until commit, merge in
// the MB, and re-enter the access path as evicted merge buffer entries
// (MBEs) with the lowest priority.
type Malec struct {
	sys *System

	ib        []ibEntry // carried + newly arrived loads, priority order
	newLoads  int       // loads accepted this cycle
	newStores int
	aguUsed   int
	mbeWait   int64 // cycles the oldest pending MBE has waited

	// group and serviced are per-cycle scratch buffers reused across
	// serviceGroup calls so the steady-state arbitration loop allocates
	// nothing.
	group    []int
	serviced []bool
}

// ibEntry is an input buffer slot.
type ibEntry struct {
	req     Request
	arrived int64
}

// mbeFairnessLimit promotes a starving MBE to group head after this many
// waiting cycles, guaranteeing forward progress for committed stores.
const mbeFairnessLimit = 16

// Name implements Interface.
func (m *Malec) Name() string { return m.sys.Cfg.Name }

// capacity returns the input buffer's total load storage: carried slots
// plus the per-cycle address computation latches.
func (m *Malec) capacity() int { return m.sys.Cfg.CarriedLoads + m.sys.Cfg.AGUTotal }

// TryIssue implements Interface. Loads are rejected when the input buffer's
// storage elements are insufficient ("one or more address computation units
// are stalled", Sec. IV).
func (m *Malec) TryIssue(r Request) bool {
	if m.aguUsed >= m.sys.Cfg.AGUTotal {
		return false
	}
	if r.Kind == mem.Store {
		if m.newStores >= m.sys.Cfg.AGUStores || m.sys.SB.Full() {
			return false
		}
		// No translation at issue: the MBE translates (shared) when it
		// re-enters via the input buffer.
		m.sys.SB.Insert(r.Seq, r.VA, r.Size)
		m.sys.Ctr.Inc(stats.CtrIssueStores)
		m.newStores++
		m.aguUsed++
		return true
	}
	if m.newLoads >= m.sys.Cfg.AGULoads || len(m.ib) >= m.capacity() {
		m.sys.Ctr.Inc(stats.CtrIBStalls)
		return false
	}
	m.ib = append(m.ib, ibEntry{req: r, arrived: m.sys.Cycle()})
	m.sys.Ctr.Inc(stats.CtrIssueLoads)
	m.newLoads++
	m.aguUsed++
	return true
}

// CommitStore implements Interface.
func (m *Malec) CommitStore(seq uint64) { m.sys.SB.Commit(seq) }

// Tick implements Interface: one full input-buffer selection, translation
// and arbitration round.
func (m *Malec) Tick() []Completion {
	due := m.sys.advance()
	m.sys.drainStores()
	m.serviceGroup()
	m.newLoads, m.newStores, m.aguUsed = 0, 0, 0
	return due
}

// bankClaim records which access owns a cache bank this cycle.
type bankClaim struct {
	claimed  bool
	isMBE    bool
	mergeKey mem.Addr // line address or 32 byte window of the claiming load
	groupIdx int      // group position of the claiming load
	way      int
	wayKnown bool
	extraLat int
}

// serviceGroup performs one cycle of MALEC operation.
func (m *Malec) serviceGroup() {
	mbe, haveMBE := m.sys.MB.NextMBE()
	if len(m.ib) == 0 && !haveMBE {
		return
	}
	if haveMBE {
		m.mbeWait++
	}

	// Priority selection: the highest-priority entry determines the page
	// serviced this cycle. MBEs are lowest priority ("not time critical,
	// as corresponding stores already committed") unless starving.
	var vpage mem.PageID
	mbeIsHead := false
	switch {
	case len(m.ib) == 0 || m.mbeWait > mbeFairnessLimit && haveMBE:
		vpage = mbe.LineVA.Page()
		mbeIsHead = true
	default:
		vpage = m.ib[0].req.VA.Page()
	}

	// One shared address translation per cycle; the page ID is compared
	// against every other valid entry in parallel (the input buffer's
	// narrow comparators).
	res := m.sys.translate(vpage)
	m.sys.Ctr.Inc(stats.CtrMalecGroups)

	// Gather the group: input buffer entries matching the page, in
	// priority order, plus the MBE when it matches.
	group := m.group[:0]
	for i := range m.ib {
		if m.ib[i].req.VA.Page() == vpage {
			group = append(group, i)
		}
	}
	m.group = group
	mbeInGroup := haveMBE && (mbeIsHead || mbe.LineVA.Page() == vpage)
	m.sys.Ctr.Add(stats.CtrMalecGroupLoads, uint64(len(group)))

	// One uWT entry read services the whole group (Sec. V: the energy to
	// evaluate WT entries is independent of the number of references).
	if m.sys.PageD != nil && (len(group) > 0 || mbeInGroup) {
		m.sys.MeterV.UWTRead()
	}

	var banks [mem.NumBanks]bankClaim
	buses := m.sys.Cfg.MaxLoadsPerCycle
	if cap(m.serviced) < len(m.ib) {
		m.serviced = make([]bool, len(m.ib))
	}
	serviced := m.serviced[:len(m.ib)]
	for i := range serviced {
		serviced[i] = false
	}
	nServiced := 0
	baseLat := m.sys.Cfg.L1Latency + res.Latency

	for gi, idx := range group {
		if buses == 0 {
			break
		}
		e := &m.ib[idx]
		r := e.req
		// SB/MB forwarding consumes a result bus but no cache bank.
		if m.sys.forwardCheck(r.VA, r.Size) {
			m.sys.schedule(r.Seq, m.sys.Cycle()+int64(baseLat))
			serviced[idx] = true
			nServiced++
			buses--
			continue
		}
		pa := mem.MakeAddr(res.PPage, r.VA.PageOffset())
		bank := pa.Bank()
		key := mergeKey(pa, m.sys.Cfg.MergeWindowBytes)
		c := &banks[bank]
		switch {
		case !c.claimed:
			// Highest-priority access to this bank claims it and
			// performs the actual L1 access.
			way, known := m.detLookup(pa, res.UIdx)
			extra := m.sys.loadAccess(pa, way, known, res.UIdx)
			*c = bankClaim{claimed: true, mergeKey: key, groupIdx: gi,
				way: way, wayKnown: known, extraLat: extra}
			m.sys.schedule(r.Seq, m.sys.Cycle()+int64(baseLat+extra))
			serviced[idx] = true
			nServiced++
			buses--
		case !c.isMBE && c.mergeKey == key &&
			gi-c.groupIdx <= m.sys.Cfg.MergeCompareLimit &&
			m.sys.Cfg.MergeCompareLimit > 0:
			// Merge: share the claiming load's data (no extra cache
			// access, no extra energy), consuming only a result bus.
			m.sys.schedule(r.Seq, m.sys.Cycle()+int64(baseLat+c.extraLat))
			serviced[idx] = true
			nServiced++
			buses--
			m.sys.Ctr.Inc(stats.CtrMalecMergedLoads)
		default:
			// Bank conflict: the entry stays in the input buffer.
			m.sys.Ctr.Inc(stats.CtrMalecBankConflicts)
		}
	}

	// The MBE writes its bank if still free (one write per cycle).
	if mbeInGroup {
		pline := mem.MakeAddr(res.PPage, mbe.LineVA.PageOffset())
		bank := pline.Bank()
		if !banks[bank].claimed {
			m.sys.mbeWrite(pline, res.UIdx)
			m.sys.MB.PopMBE()
			m.sys.Ctr.Inc(stats.CtrMBMBEWrites)
			m.mbeWait = 0
		}
	}

	// Compact the input buffer, keeping unserviced entries in order.
	if nServiced > 0 {
		kept := m.ib[:0]
		for i := range m.ib {
			if !serviced[i] {
				kept = append(kept, m.ib[i])
			}
		}
		m.ib = kept
	}
	if carried := len(m.ib); carried > 0 {
		m.sys.Ctr.Add(stats.CtrIBCarried, uint64(carried))
	}
}

// mergeKey truncates an address to the configured merge granularity.
// Merging never crosses a cache line regardless of the window size.
func mergeKey(pa mem.Addr, window int) mem.Addr {
	switch {
	case window <= 0:
		return pa.Canon() // exact address: effectively unmergeable
	case window >= mem.LineSize:
		return pa.LineAddr()
	default:
		return pa.Canon() &^ mem.Addr(window-1)
	}
}

// detLookup consults the way determiner, charging WDU port energy when a
// WDU is configured (the WT read is charged once per group instead).
func (m *Malec) detLookup(pa mem.Addr, uIdx int) (way int, known bool) {
	way, known = m.sys.Det.Lookup(pa, uIdx)
	if m.sys.WDUD != nil {
		m.sys.MeterV.WDULookup()
	}
	return way, known
}

// Pending implements Interface.
func (m *Malec) Pending() int { return m.sys.Pending() + len(m.ib) }

// Flush implements Interface.
func (m *Malec) Flush() { m.sys.Flush() }

// Idle implements Interface.
func (m *Malec) Idle() bool { return m.sys.Idle() && len(m.ib) == 0 }

// NextWork implements Interface. A non-empty input buffer means the next
// serviceGroup performs a translation and arbitration round (and a pending
// MBE additionally ages mbeWait), so any carried load pins work to the very
// next cycle; otherwise the shared-structure bound applies.
func (m *Malec) NextWork(now int64) int64 {
	if len(m.ib) > 0 {
		return now + 1
	}
	return m.sys.nextWork(now)
}

// Meter implements Interface.
func (m *Malec) Meter() *energy.Meter { return m.sys.MeterV }

// Counters implements Interface.
func (m *Malec) Counters() *stats.Counters { return m.sys.Ctr }

// System implements Interface.
func (m *Malec) System() *System { return m.sys }

// Restore implements Interface.
func (m *Malec) Restore(st *SystemState) error {
	if err := m.sys.RestoreState(st); err != nil {
		return err
	}
	*m = Malec{sys: m.sys, ib: m.ib[:0], group: m.group[:0], serviced: m.serviced}
	return nil
}

// New constructs the Interface matching cfg.Kind.
func New(cfg config.Config) Interface { return over(NewSystem(cfg)) }

// Renew returns the Interface New(cfg) builds, in the storage of old, an
// Interface that New or Renew returned. Neither old nor anything it
// exposes (its System, Meter and Counters) may be used afterwards.
func Renew(old Interface, cfg config.Config) Interface {
	s := old.System()
	s.reset(cfg)
	return over(s)
}

// over readies the Interface matching s's configuration's Kind, in the
// system's storage.
func over(s *System) Interface {
	p := s.own
	switch s.Cfg.Kind {
	case config.KindBase1:
		p.base1 = Base1{sys: s}
		return &p.base1
	case config.KindBase2:
		p.base2 = Base2{sys: s, pending: p.base2.pending[:0]}
		return &p.base2
	case config.KindMALEC:
		p.malec = Malec{sys: s, ib: p.malec.ib[:0], group: p.malec.group[:0], serviced: p.malec.serviced}
		return &p.malec
	default:
		panic("core: unknown interface kind")
	}
}
