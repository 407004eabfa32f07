package waytable

import (
	"malec/internal/mem"
	"malec/internal/tlb"
)

// Determiner is the way-determination interface consumed by the MALEC
// arbitration unit. Implementations: PageSystem (WT/uWT, Sec. V), WDU
// (Sec. II / VI-C) and None.
type Determiner interface {
	// Lookup returns the determined way for a physical line, given the
	// uTLB slot the translation hit (only PageSystem uses uIdx; the WDU
	// performs its own tag-sized lookup). known implies the line is
	// guaranteed resident in that way (validity bit semantics).
	Lookup(pline mem.Addr, uIdx int) (way int, known bool)
	// Feedback reports the way observed by a conventional access that
	// hit after Lookup returned unknown, letting the determiner learn.
	Feedback(pline mem.Addr, uIdx int, way int)
	// Coverage returns how many lookups were known vs total.
	Coverage() (known, total uint64)
}

// None is a Determiner that never knows the way (baseline caches).
type None struct{}

// Lookup always returns unknown.
func (None) Lookup(mem.Addr, int) (int, bool) { return -1, false }

// Feedback is a no-op.
func (None) Feedback(mem.Addr, int, int) {}

// Coverage is always zero.
func (None) Coverage() (uint64, uint64) { return 0, 0 }

// PageSystem wires a WT (TLB-sized) and uWT (uTLB-sized) into the
// translation hierarchy and the L1's fill/evict path, implementing
// Page-Based Way Determination:
//
//   - TLB insert of a new page resets its WT entry;
//   - uTLB refill copies the WT entry into the uWT; uTLB eviction writes
//     the (authoritative) uWT entry back to the WT;
//   - line fills/evictions reverse-look-up the page and update the uWT if
//     the page is micro-resident, otherwise the WT;
//   - the last-entry register feeds ways observed by conventional hits
//     back into the uWT when FeedbackUpdate is enabled (this lifts
//     coverage from ~75% to ~94% in the paper).
type PageSystem struct {
	UWT Store
	WT  Store

	// FeedbackUpdate enables the last-entry register update path.
	FeedbackUpdate bool

	hier  *tlb.Hierarchy
	hooks tlbHooks

	known uint64
	total uint64
	fed   uint64 // feedback updates performed
}

// NewPageSystem builds the WT/uWT pair sized to the hierarchy's TLBs and
// installs the synchronization hooks on them.
func NewPageSystem(hier *tlb.Hierarchy) *PageSystem {
	s := new(PageSystem)
	s.Init(hier, NewTable("uWT", hier.U.Size()), NewTable("WT", hier.Main.Size()))
	return s
}

// tlbHooks are a page system's TLB hooks, bound to it once, so that
// Init allocates nothing.
type tlbHooks struct {
	insert, evict, uInsert, uEvict func(idx int, e tlb.Entry)
}

// Init readies s over hier and explicit way stores (full tables, or
// SegmentedTable for the paper's Sec. VI-D extension) and installs the
// synchronization hooks on hier's TLBs.
func (s *PageSystem) Init(hier *tlb.Hierarchy, uwt, wt Store) {
	h := s.hooks
	if h.insert == nil {
		h = tlbHooks{s.onTLBInsert, s.onTLBEvict, s.onUTLBInsert, s.onUTLBEvict}
	}
	*s = PageSystem{
		UWT:            uwt,
		WT:             wt,
		FeedbackUpdate: true,
		hier:           hier,
		hooks:          h,
	}
	hier.Main.OnInsert, hier.Main.OnEvict = h.insert, h.evict
	hier.U.OnInsert, hier.U.OnEvict = h.uInsert, h.uEvict
}

// onTLBInsert allocates a fresh (all-unknown) WT entry for the new page.
func (s *PageSystem) onTLBInsert(idx int, e tlb.Entry) {
	s.WT.Reset(idx, e.PPage)
}

// onTLBEvict maintains uTLB inclusion: a page leaving the TLB must also
// leave the uTLB (writing its uWT entry back first via onUTLBEvict).
func (s *PageSystem) onTLBEvict(idx int, old tlb.Entry) {
	s.hier.U.Invalidate(old.VPage)
	s.WT.InvalidateSlot(idx)
}

// onUTLBInsert refills the uWT entry from the WT ("the WT includes all uWT
// entries").
func (s *PageSystem) onUTLBInsert(idx int, e tlb.Entry) {
	if t := s.WT.SlotFor(e.PPage); t >= 0 {
		s.UWT.CopyFrom(idx, s.WT, t)
	} else {
		s.UWT.Reset(idx, e.PPage)
	}
}

// onUTLBEvict writes the authoritative uWT entry back to the WT
// ("synchronization of uWT and WT is based on full entries").
func (s *PageSystem) onUTLBEvict(idx int, old tlb.Entry) {
	if page, ok := s.UWT.PageAt(idx); ok {
		if t := s.WT.SlotFor(page); t >= 0 {
			s.WT.CopyFrom(t, s.UWT, idx)
		}
	}
	s.UWT.InvalidateSlot(idx)
}

// Lookup implements Determiner. The uWT entry was fetched together with the
// uTLB translation, so no separate search is needed; one entry read is
// charged.
func (s *PageSystem) Lookup(pline mem.Addr, uIdx int) (way int, known bool) {
	s.total++
	if uIdx < 0 {
		return -1, false
	}
	if page, ok := s.UWT.PageAt(uIdx); !ok || page != pline.Page() {
		return -1, false
	}
	way, known = s.UWT.Read(uIdx, pline.LineInPage())
	if known {
		s.known++
	}
	return way, known
}

// Feedback implements Determiner: the last-entry register path ("the uWT is
// updated if it returns way unknown but a subsequent conventional cache
// access hits").
func (s *PageSystem) Feedback(pline mem.Addr, uIdx int, way int) {
	if !s.FeedbackUpdate || uIdx < 0 {
		return
	}
	if page, ok := s.UWT.PageAt(uIdx); ok && page == pline.Page() {
		s.UWT.SetLine(uIdx, pline.LineInPage(), way)
		s.fed++
	}
}

// OnFill is the L1 fill hook: set the line's validity+way in the uWT if the
// page is micro-resident, else in the WT ("the WT ... is only updated if no
// corresponding uWT entry was found").
func (s *PageSystem) OnFill(pline mem.Addr, _, way int) {
	uIdx, tIdx := s.hier.ReverseLookup(pline.Page())
	if uIdx >= 0 {
		if page, ok := s.UWT.PageAt(uIdx); ok && page == pline.Page() {
			s.UWT.SetLine(uIdx, pline.LineInPage(), way)
			return
		}
	}
	if tIdx >= 0 {
		s.WT.SetLine(tIdx, pline.LineInPage(), way)
	}
}

// OnEvict is the L1 eviction hook: reset the line's validity bit.
func (s *PageSystem) OnEvict(pline mem.Addr, _, _ int) {
	uIdx, tIdx := s.hier.ReverseLookup(pline.Page())
	if uIdx >= 0 {
		if page, ok := s.UWT.PageAt(uIdx); ok && page == pline.Page() {
			s.UWT.InvalidateLine(uIdx, pline.LineInPage())
			return
		}
	}
	if tIdx >= 0 {
		s.WT.InvalidateLine(tIdx, pline.LineInPage())
	}
}

// Coverage implements Determiner.
func (s *PageSystem) Coverage() (known, total uint64) { return s.known, s.total }

// FeedbackUpdates returns how many last-entry register updates occurred.
func (s *PageSystem) FeedbackUpdates() uint64 { return s.fed }
