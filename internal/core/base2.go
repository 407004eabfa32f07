package core

import (
	"malec/internal/energy"
	"malec/internal/mem"
	"malec/internal/stats"
)

// Base2 is the performance-oriented baseline Base2ld1st: two loads plus one
// store per cycle, realized with physically multi-ported uTLB/TLB
// (1 rd/wt + 2 rd) and cache (1 rd/wt + 1 rd) on top of banking (Tab. I).
// Each load performs its own translation and its own full-width SB/MB
// lookup; the energy premium of the extra ports is captured by the meter's
// port multipliers.
type Base2 struct {
	sys *System

	loadsIssued  int
	storesIssued int
	pending      []Request
}

// Name implements Interface.
func (b *Base2) Name() string { return b.sys.Cfg.Name }

// TryIssue implements Interface: up to AGULoads loads and AGUStores stores.
func (b *Base2) TryIssue(r Request) bool {
	if r.Kind == mem.Store {
		if b.storesIssued >= b.sys.Cfg.AGUStores || b.sys.SB.Full() {
			return false
		}
		b.sys.translate(r.VA.Page())
		b.sys.SB.Insert(r.Seq, r.VA, r.Size)
		b.sys.Ctr.Inc(stats.CtrIssueStores)
		b.storesIssued++
		return true
	}
	if b.loadsIssued >= b.sys.Cfg.AGULoads {
		return false
	}
	b.pending = append(b.pending, r)
	b.sys.Ctr.Inc(stats.CtrIssueLoads)
	b.loadsIssued++
	return true
}

// CommitStore implements Interface.
func (b *Base2) CommitStore(seq uint64) { b.sys.SB.Commit(seq) }

// Tick implements Interface. Cache ports allow two reads, or one read and
// one write, per cycle (1 rd/wt + 1 rd); banks are dual-ported so no bank
// conflicts arise at this issue width.
func (b *Base2) Tick() []Completion {
	due := b.sys.advance()
	b.sys.drainStores()

	accesses := 0
	writes := 0
	for _, r := range b.pending {
		res := b.sys.translate(r.VA.Page())
		pa := mem.MakeAddr(res.PPage, r.VA.PageOffset())
		lat := b.sys.Cfg.L1Latency + res.Latency
		if b.sys.forwardCheck(r.VA, r.Size) {
			b.sys.schedule(r.Seq, b.sys.Cycle()+int64(lat))
			continue
		}
		extra := b.sys.loadAccess(pa, -1, false, -1)
		b.sys.schedule(r.Seq, b.sys.Cycle()+int64(lat+extra))
		accesses++
	}
	b.pending = b.pending[:0]
	// The rd/wt port serves an MBE write if still free.
	if accesses < 2 && writes < b.sys.Cfg.MaxWritesPerCycle {
		if mbe, ok := b.sys.MB.NextMBE(); ok {
			pline := b.sys.Hier.PT.TranslateAddr(mbe.LineVA)
			b.sys.mbeWrite(pline, -1)
			b.sys.MB.PopMBE()
			b.sys.Ctr.Inc(stats.CtrMBMBEWrites)
			writes++
		}
	}
	b.loadsIssued = 0
	b.storesIssued = 0
	return due
}

// Pending implements Interface.
func (b *Base2) Pending() int { return b.sys.Pending() + len(b.pending) }

// Flush implements Interface.
func (b *Base2) Flush() { b.sys.Flush() }

// Idle implements Interface.
func (b *Base2) Idle() bool { return b.sys.Idle() && len(b.pending) == 0 }

// NextWork implements Interface.
func (b *Base2) NextWork(now int64) int64 {
	if len(b.pending) > 0 {
		return now + 1
	}
	return b.sys.nextWork(now)
}

// Meter implements Interface.
func (b *Base2) Meter() *energy.Meter { return b.sys.MeterV }

// Counters implements Interface.
func (b *Base2) Counters() *stats.Counters { return b.sys.Ctr }

// System implements Interface.
func (b *Base2) System() *System { return b.sys }

// Restore implements Interface.
func (b *Base2) Restore(st *SystemState) error {
	if err := b.sys.RestoreState(st); err != nil {
		return err
	}
	*b = Base2{sys: b.sys, pending: b.pending[:0]}
	return nil
}
