package core

import (
	"malec/internal/config"
	"malec/internal/energy"
	"malec/internal/mem"
	"malec/internal/stats"
)

// Base1 is the energy-oriented baseline Base1ldst: a single address
// computation unit and a single rd/wt port on uTLB/TLB and cache, i.e. one
// load or one store per cycle (Tab. I).
type Base1 struct {
	sys *System

	aguUsed bool
	// pending is the single load awaiting service next Tick; the one
	// address computation unit (aguUsed) admits at most one per cycle.
	pending    Request
	hasPending bool
}

// NewBase1 builds a Base1ldst interface for cfg.
func NewBase1(cfg config.Config) *Base1 {
	return &Base1{sys: NewSystem(cfg)}
}

// Name implements Interface.
func (b *Base1) Name() string { return b.sys.Cfg.Name }

// TryIssue implements Interface: one memory operation per cycle.
func (b *Base1) TryIssue(r Request) bool {
	if b.aguUsed {
		return false
	}
	if r.Kind == mem.Store {
		// Stores translate at issue (for the SB) and wait for commit.
		if b.sys.SB.Full() {
			return false
		}
		b.sys.translate(r.VA.Page())
		b.sys.SB.Insert(r.Seq, r.VA, r.Size)
		b.sys.Ctr.Inc(stats.CtrIssueStores)
		b.aguUsed = true
		return true
	}
	b.pending = r
	b.hasPending = true
	b.sys.Ctr.Inc(stats.CtrIssueLoads)
	b.aguUsed = true
	return true
}

// CommitStore implements Interface.
func (b *Base1) CommitStore(seq uint64) { b.sys.SB.Commit(seq) }

// Tick implements Interface.
func (b *Base1) Tick() []Completion {
	due := b.sys.advance()
	b.sys.drainStores()

	l1PortUsed := false
	if b.hasPending {
		r := b.pending
		b.hasPending = false
		res := b.sys.translate(r.VA.Page())
		pa := mem.MakeAddr(res.PPage, r.VA.PageOffset())
		lat := b.sys.Cfg.L1Latency + res.Latency
		if b.sys.forwardCheck(r.VA, r.Size) {
			b.sys.schedule(r.Seq, b.sys.Cycle()+int64(lat))
		} else {
			extra := b.sys.loadAccess(pa, -1, false, -1)
			b.sys.schedule(r.Seq, b.sys.Cycle()+int64(lat+extra))
		}
		l1PortUsed = true
	}
	// The single rd/wt cache port serves a pending MBE write when no load
	// claimed it.
	if !l1PortUsed {
		if mbe, ok := b.sys.MB.NextMBE(); ok {
			pline := b.sys.Hier.PT.TranslateAddr(mbe.LineVA) // PA captured at store issue
			b.sys.mbeWrite(pline, -1)
			b.sys.MB.PopMBE()
			b.sys.Ctr.Inc(stats.CtrMBMBEWrites)
		}
	}
	b.aguUsed = false
	return due
}

// Pending implements Interface.
func (b *Base1) Pending() int {
	n := b.sys.Pending()
	if b.hasPending {
		n++
	}
	return n
}

// Flush implements Interface.
func (b *Base1) Flush() { b.sys.Flush() }

// Idle implements Interface.
func (b *Base1) Idle() bool { return b.sys.Idle() && !b.hasPending }

// NextWork implements Interface.
func (b *Base1) NextWork(now int64) int64 {
	if b.hasPending {
		return now + 1
	}
	return b.sys.nextWork(now)
}

// Meter implements Interface.
func (b *Base1) Meter() *energy.Meter { return b.sys.MeterV }

// Counters implements Interface.
func (b *Base1) Counters() *stats.Counters { return b.sys.Ctr }

// System implements Interface.
func (b *Base1) System() *System { return b.sys }

// Restore implements Interface.
func (b *Base1) Restore(st *SystemState) error {
	if err := b.sys.RestoreState(st); err != nil {
		return err
	}
	*b = Base1{sys: b.sys}
	return nil
}
