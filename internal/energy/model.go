// Package energy provides the CACTI-substitute energy model. The paper
// combines gem5 access statistics with CACTI v6.5 energy estimates (32nm,
// low dynamic power objective, low-standby-power cells) for three component
// groups: the L1 data cache (tag/data arrays + control), uTLB+uWT and
// TLB+WT. LQ, SB and MB energy is excluded ("very similar for all analyzed
// configurations"), as are L2 and below.
//
// CACTI itself is unavailable here; this model replaces it with per-event
// unit energies whose decomposition (fixed decode/control cost + per-way
// array cost) and port-scaling laws reproduce every ratio the paper states:
//
//   - an additional L1 read port increases L1 leakage by 80%;
//   - multi-ported arrays pay a per-access dynamic premium;
//   - the uWT contributes ~0.3% of leakage and ~2.1% of dynamic energy;
//   - reduced (tag-bypassing, single-data-way) accesses cost roughly half
//     of a conventional parallel 4-way access.
//
// Units: dynamic energies are picojoules per event; leakage powers are
// milliwatts. At the paper's 1 GHz clock one cycle is 1 ns, so 1 mW of
// leakage is 1 pJ per cycle.
package energy

import (
	"fmt"
	"sort"
	"strings"
)

// Component identifies an energy accounting bucket.
type Component int

// Components, matching the paper's reporting granularity.
const (
	L1 Component = iota
	UTLB
	TLB
	UWT
	WT
	WDU
	numComponents
)

// Components returns every accounting bucket in reporting order (for
// callers iterating a Breakdown's Dynamic/Leakage arrays by component).
func Components() []Component {
	cs := make([]Component, numComponents)
	for i := range cs {
		cs[i] = Component(i)
	}
	return cs
}

// String names the component.
func (c Component) String() string {
	switch c {
	case L1:
		return "L1"
	case UTLB:
		return "uTLB"
	case TLB:
		return "TLB"
	case UWT:
		return "uWT"
	case WT:
		return "WT"
	case WDU:
		return "WDU"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Params holds the unit energies and leakage powers. Defaults are produced
// by DefaultParams and calibrated against the paper's stated ratios (see
// package comment and the calibration tests).
type Params struct {
	// L1 per-access decomposition. A conventional load reads all tag
	// arrays and all data arrays in parallel; a reduced load bypasses
	// tags and reads exactly one data array (Sec. V).
	L1Control    float64 // control logic per L1 access
	L1TagFixed   float64 // tag decode/precharge, paid once per tag access
	L1TagPerWay  float64 // per tag-way comparison
	L1DataFixed  float64 // data decode/precharge, paid once per data access
	L1DataPerWay float64 // per data-way 32 byte readout or write

	// Translation structures (fully-associative search + data read).
	UTLBLookup  float64
	TLBLookup   float64
	UTLBReverse float64 // physical-tag-array-only search (WT maintenance)
	TLBReverse  float64

	// Way tables (plain RAM reads/writes piggybacked on TLB hits).
	UWTRead       float64
	WTRead        float64
	UWTLineUpdate float64
	WTLineUpdate  float64
	EntryTransfer float64 // full 128 bit uWT<->WT move

	// WDU (per associative port lookup; scales with entry count).
	WDULookupBase     float64
	WDULookupPerEntry float64
	WDUUpdate         float64

	// Leakage powers (mW).
	L1Leak         float64
	UTLBLeak       float64
	TLBLeak        float64
	UWTLeak        float64
	WTLeak         float64
	WDULeakPerBit  float64
	WDUBitsPerSlot float64

	// Port scaling.
	// DynPortPremium is the per-extra-port multiplier addend on dynamic
	// energy of an array (longer bitlines/wordlines in multi-ported
	// cells).
	DynPortPremium float64
	// LeakPortPremium is the per-extra-port multiplier addend on leakage
	// (paper: +80% L1 leakage per additional read port).
	LeakPortPremium float64
}

// DefaultParams returns the calibrated parameter set.
func DefaultParams() Params {
	return Params{
		L1Control:    2.0,
		L1TagFixed:   0.8,
		L1TagPerWay:  0.7,
		L1DataFixed:  9.0,
		L1DataPerWay: 2.2,

		UTLBLookup:  1.5,
		TLBLookup:   4.0,
		UTLBReverse: 0.8,
		TLBReverse:  2.2,

		UWTRead:       0.5,
		WTRead:        1.1,
		UWTLineUpdate: 0.6,
		WTLineUpdate:  1.2,
		EntryTransfer: 2.4,

		WDULookupBase:     0.30,
		WDULookupPerEntry: 0.08,
		WDUUpdate:         0.55,

		L1Leak:         10.0,
		UTLBLeak:       0.25,
		TLBLeak:        1.60,
		UWTLeak:        0.04,
		WTLeak:         0.16,
		WDULeakPerBit:  0.00045,
		WDUBitsPerSlot: 26 + 2 + 1, // line tag + way + valid

		DynPortPremium:  0.35,
		LeakPortPremium: 0.80,
	}
}

// Ports describes the physical port counts of a configuration (Tab. I) as
// extra ports beyond the single-ported baseline.
type Ports struct {
	L1ExtraPorts  int // Base2ld1st: 1 (1 rd/wt + 1 rd)
	TLBExtraPorts int // Base2ld1st: 2 (1 rd/wt + 2 rd), applies to uTLB+TLB
	HasWayTables  bool
	WDUEntries    int // >0 substitutes a WDU for the way tables
	WDUPorts      int
	ParallelTLBL1 bool // VIPT-style parallel TLB+L1 lookup (1-cycle variants)
}

// event enumerates the meter's dynamic-energy event kinds. The hot path
// only bumps uint64 counters per event; prices are applied once at Finish
// (deferred pricing), so no floating-point work happens per access.
type event int

const (
	evL1ConvRead event = iota
	evL1ReducedRead
	evL1Write
	evL1ReducedWrite
	evL1MissCheck
	evL1Fill
	evL1Eviction
	evUTLBLookup
	evTLBLookup
	evUTLBReverse
	evTLBReverse
	evUWTRead
	evWTRead
	evUWTLineUpdate
	evWTLineUpdate
	evEntryTransfer
	evWDULookup
	evWDUUpdate
	numEvents
)

// Meter accumulates per-component dynamic energy during a simulation and
// converts leakage power into energy at Finish.
//
// It counts events in dense uint64 counters and prices them once per
// Finish. The package tests check it against a reference meter that
// accumulates each event's float64 energy as it happens: the two disagree
// only in floating-point association, within 1e-9 relative error. The
// per-way events additionally accumulate their ways argument, so deferred
// pricing stays exact for any mix of associativities.
type Meter struct {
	P     Params
	ports Ports

	dynMulL1  float64
	dynMulTLB float64

	counts  [numEvents]uint64
	waysSum [3]uint64 // ways accumulators: conv read, write, miss check
}

// NewMeter returns a meter for the given parameters and port configuration.
func NewMeter(p Params, ports Ports) *Meter {
	m := new(Meter)
	m.Init(p, ports)
	return m
}

// Init readies m as NewMeter(p, ports) builds it.
func (m *Meter) Init(p Params, ports Ports) {
	*m = Meter{
		P:         p,
		ports:     ports,
		dynMulL1:  1 + p.DynPortPremium*float64(ports.L1ExtraPorts),
		dynMulTLB: 1 + p.DynPortPremium*float64(ports.TLBExtraPorts),
	}
}

// Reset clears every accumulated event, as on a new meter.
func (m *Meter) Reset() {
	m.counts = [numEvents]uint64{}
	m.waysSum = [3]uint64{}
}

// waysSum indices.
const (
	waysConvRead = iota
	waysWrite
	waysMissCheck
)

// --- L1 events ---

// L1ConventionalRead charges a parallel all-ways load lookup.
func (m *Meter) L1ConventionalRead(ways int) {
	m.counts[evL1ConvRead]++
	m.waysSum[waysConvRead] += uint64(ways)
}

// L1ReducedRead charges a tag-bypassing single-data-way load.
func (m *Meter) L1ReducedRead() {
	m.counts[evL1ReducedRead]++
}

// L1Write charges a store: a tag check across ways plus one data-way write.
func (m *Meter) L1Write(ways int) {
	m.counts[evL1Write]++
	m.waysSum[waysWrite] += uint64(ways)
}

// L1ReducedWrite charges a store with a known way (tags bypassed).
func (m *Meter) L1ReducedWrite() {
	m.counts[evL1ReducedWrite]++
}

// L1MissCheck charges the tag-only portion of an access that missed
// (the parallel data readout of a conventional access is already charged by
// the read event; misses detected by tag compare).
func (m *Meter) L1MissCheck(ways int) {
	m.counts[evL1MissCheck]++
	m.waysSum[waysMissCheck] += uint64(ways)
}

// L1Fill charges a line fill (tag write + full-line data write).
func (m *Meter) L1Fill() {
	m.counts[evL1Fill]++
}

// L1Eviction charges reading a victim line out for writeback.
func (m *Meter) L1Eviction() {
	m.counts[evL1Eviction]++
}

// --- Translation events ---

// UTLBLookup charges one micro-TLB search.
func (m *Meter) UTLBLookup() {
	m.counts[evUTLBLookup]++
}

// TLBLookup charges one main-TLB search.
func (m *Meter) TLBLookup() {
	m.counts[evTLBLookup]++
}

// ReverseLookups charges the physical-tag searches of a line fill/eviction.
func (m *Meter) ReverseLookups(utlb, tlb bool) {
	if utlb {
		m.counts[evUTLBReverse]++
	}
	if tlb {
		m.counts[evTLBReverse]++
	}
}

// --- Way-table events ---

// UWTRead charges one uWT entry read (once per arbitration group; the
// scheme's energy is independent of the number of parallel references).
func (m *Meter) UWTRead() {
	m.counts[evUWTRead]++
}

// WTRead charges one WT entry read.
func (m *Meter) WTRead() {
	m.counts[evWTRead]++
}

// UWTLineUpdate charges a single-line uWT code write.
func (m *Meter) UWTLineUpdate() {
	m.counts[evUWTLineUpdate]++
}

// WTLineUpdate charges a single-line WT code write.
func (m *Meter) WTLineUpdate() {
	m.counts[evWTLineUpdate]++
}

// EntryTransfer charges a full uWT<->WT entry move.
func (m *Meter) EntryTransfer() {
	m.counts[evEntryTransfer]++
}

// --- WDU events ---

// WDULookup charges one associative WDU port search.
func (m *Meter) WDULookup() {
	m.counts[evWDULookup]++
}

// WDUUpdate charges one WDU insert/refresh.
func (m *Meter) WDUUpdate() {
	m.counts[evWDUUpdate]++
}

// dynamic prices the accumulated event counts into per-component dynamic
// energies. Per-way terms price the summed ways (exact: the per-event
// energy is affine in ways, so the sum over events equals fixed*count +
// perWay*waysSum up to float association).
func (m *Meter) dynamic() [numComponents]float64 {
	n := func(e event) float64 { return float64(m.counts[e]) }
	var d [numComponents]float64
	d[L1] = m.dynMulL1 * (n(evL1ConvRead)*(m.P.L1Control+m.P.L1TagFixed+m.P.L1DataFixed) +
		float64(m.waysSum[waysConvRead])*(m.P.L1TagPerWay+m.P.L1DataPerWay) +
		n(evL1ReducedRead)*(m.P.L1Control+m.P.L1DataFixed+m.P.L1DataPerWay) +
		n(evL1Write)*(m.P.L1Control+m.P.L1TagFixed+m.P.L1DataFixed+m.P.L1DataPerWay) +
		float64(m.waysSum[waysWrite])*m.P.L1TagPerWay +
		n(evL1ReducedWrite)*(m.P.L1Control+m.P.L1DataFixed+m.P.L1DataPerWay) +
		n(evL1MissCheck)*(m.P.L1Control+m.P.L1TagFixed) +
		float64(m.waysSum[waysMissCheck])*m.P.L1TagPerWay +
		n(evL1Fill)*(m.P.L1Control+m.P.L1TagFixed+m.P.L1TagPerWay+m.P.L1DataFixed+4*m.P.L1DataPerWay) +
		n(evL1Eviction)*(m.P.L1Control+m.P.L1DataFixed+2*m.P.L1DataPerWay))
	d[UTLB] = m.dynMulTLB * (n(evUTLBLookup)*m.P.UTLBLookup + n(evUTLBReverse)*m.P.UTLBReverse)
	d[TLB] = m.dynMulTLB * (n(evTLBLookup)*m.P.TLBLookup + n(evTLBReverse)*m.P.TLBReverse)
	d[UWT] = n(evUWTRead)*m.P.UWTRead + n(evUWTLineUpdate)*m.P.UWTLineUpdate +
		n(evEntryTransfer)*(m.P.EntryTransfer/2)
	d[WT] = n(evWTRead)*m.P.WTRead + n(evWTLineUpdate)*m.P.WTLineUpdate +
		n(evEntryTransfer)*(m.P.EntryTransfer/2)
	d[WDU] = n(evWDULookup)*(m.P.WDULookupBase+m.P.WDULookupPerEntry*float64(m.ports.WDUEntries)) +
		n(evWDUUpdate)*m.P.WDUUpdate
	return d
}

// DynamicEnergy prices the events accumulated so far into per-component
// dynamic energies (picojoules) without finalizing the meter. The sampled
// simulation path reads it at measurement-window boundaries and differences
// two snapshots to get the window's dynamic energy; pricing is pure, so
// the call does not perturb subsequent metering.
func (m *Meter) DynamicEnergy() [numComponents]float64 { return m.dynamic() }

// --- Results ---

// Breakdown is the final energy report, in picojoules.
type Breakdown struct {
	Dynamic [numComponents]float64
	Leakage [numComponents]float64
}

// Finish converts accumulated events plus leakage-over-time into a
// Breakdown. cycles is the simulated execution time in CPU cycles (1 ns
// each at 1 GHz).
func (m *Meter) Finish(cycles uint64) Breakdown {
	var b Breakdown
	b.Dynamic = m.dynamic()
	t := float64(cycles) // ns -> mW*ns = pJ
	leakMulL1 := 1 + m.P.LeakPortPremium*float64(m.ports.L1ExtraPorts)
	leakMulTLB := 1 + m.P.LeakPortPremium*float64(m.ports.TLBExtraPorts)*0.5
	b.Leakage[L1] = m.P.L1Leak * leakMulL1 * t
	b.Leakage[UTLB] = m.P.UTLBLeak * leakMulTLB * t
	b.Leakage[TLB] = m.P.TLBLeak * leakMulTLB * t
	if m.ports.HasWayTables {
		b.Leakage[UWT] = m.P.UWTLeak * t
		b.Leakage[WT] = m.P.WTLeak * t
	}
	if m.ports.WDUEntries > 0 {
		bits := m.P.WDUBitsPerSlot * float64(m.ports.WDUEntries) *
			float64(max(1, m.ports.WDUPorts))
		b.Leakage[WDU] = m.P.WDULeakPerBit * bits * t
	}
	return b
}

// TotalDynamic sums dynamic energy across components.
func (b Breakdown) TotalDynamic() float64 {
	var s float64
	for _, v := range b.Dynamic {
		s += v
	}
	return s
}

// TotalLeakage sums leakage energy across components.
func (b Breakdown) TotalLeakage() float64 {
	var s float64
	for _, v := range b.Leakage {
		s += v
	}
	return s
}

// Total returns dynamic + leakage energy.
func (b Breakdown) Total() float64 { return b.TotalDynamic() + b.TotalLeakage() }

// String renders the breakdown sorted by component.
func (b Breakdown) String() string {
	var sb strings.Builder
	type row struct {
		c Component
		d float64
		l float64
	}
	var rows []row
	for c := Component(0); c < numComponents; c++ {
		if b.Dynamic[c] == 0 && b.Leakage[c] == 0 {
			continue
		}
		rows = append(rows, row{c, b.Dynamic[c], b.Leakage[c]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].c < rows[j].c })
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s dynamic %14.1f pJ   leakage %14.1f pJ\n",
			r.c.String(), r.d, r.l)
	}
	fmt.Fprintf(&sb, "%-6s dynamic %14.1f pJ   leakage %14.1f pJ   total %14.1f pJ\n",
		"ALL", b.TotalDynamic(), b.TotalLeakage(), b.Total())
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
