package core

// SystemState is the microarchitectural checkpoint: a complete, exported,
// JSON-able snapshot of every memory-side structure whose contents depend
// on the access history — L1, L2/DRAM, both TLBs (entries, statistics and
// replacement-policy state), the page table, way-determination state and
// the stream detector. A sampled run captures one at every measurement
// window and restores it into each configuration's shadow; a caller's
// checkpoint store may keep it across runs, in memory.
//
// A snapshot is only meaningful on a system that has been functionally
// warmed (WarmLoad/WarmStore): warming never touches the store/merge
// buffers, the completion calendar or the MSHRs, so those are empty by
// construction and are not part of the state. Restoring empties them, so
// any same-memory-side-config System — a fresh one, or one that has run
// detailed bursts — ends up equal to a fresh one restored from the
// snapshot; no maintenance hooks fire, and derived lookup indexes are
// rebuilt from the restored contents inside each package.

import (
	"errors"
	"fmt"

	"malec/internal/cache"
	"malec/internal/stats"
	"malec/internal/tlb"
	"malec/internal/waytable"
)

// SystemState aggregates the per-package snapshots.
type SystemState struct {
	L1   cache.L1State
	Back cache.BacksideState
	UTLB tlb.TLBState
	TLB  tlb.TLBState
	PT   tlb.PageTableState

	PageD *waytable.PageSystemState `json:",omitempty"`
	WDU   *waytable.WDUState        `json:",omitempty"`
	Det   *cache.DetectorState      `json:",omitempty"`
}

// CaptureState snapshots the system's memory-side state. The system is
// unmodified.
func (s *System) CaptureState() *SystemState {
	st := &SystemState{
		L1:   s.L1.CaptureState(),
		Back: s.Back.CaptureState(),
		UTLB: s.Hier.U.CaptureState(),
		TLB:  s.Hier.Main.CaptureState(),
		PT:   s.Hier.PT.CaptureState(),
	}
	if s.PageD != nil {
		ps := s.PageD.CaptureState()
		st.PageD = &ps
	}
	if s.WDUD != nil {
		ws := s.WDUD.CaptureState()
		st.WDU = &ws
	}
	if s.detector != nil {
		ds := s.detector.CaptureState()
		st.Det = &ds
	}
	return st
}

// checkState reports whether every part of st fits the system's
// geometry, the page table aside (its check is its rebuild).
func (s *System) checkState(st *SystemState) error {
	if (s.PageD == nil) != (st.PageD == nil) || (s.WDUD == nil) != (st.WDU == nil) ||
		(s.detector == nil) != (st.Det == nil) {
		return errors.New("way determination or bypass state does not match the configuration")
	}
	err := errors.Join(s.L1.CheckState(st.L1), s.Back.CheckState(st.Back),
		s.Hier.U.CheckState(st.UTLB), s.Hier.Main.CheckState(st.TLB))
	if err == nil && s.PageD != nil {
		err = s.PageD.CheckState(*st.PageD)
	}
	if err == nil && s.WDUD != nil {
		err = s.WDUD.CheckState(*st.WDU)
	}
	if err == nil && s.detector != nil {
		err = s.detector.CheckState(*st.Det)
	}
	return err
}

// RestoreState transplants a snapshot captured from a system with the same
// memory-side configuration (cache/TLB/way-table geometry, seed, bypass)
// and empties the store and merge buffers, calendar, MSHRs, meter and
// counters, back at cycle 0. A memory side shared with other systems
// (NewShadows) is bound to this one first. Every part is checked before any is applied:
// a snapshot that does not fit — damaged, or from an older checkpoint
// format — returns an error and leaves the system unchanged.
func (s *System) RestoreState(st *SystemState) error {
	if err := s.checkState(st); err != nil {
		return fmt.Errorf("core: snapshot does not fit: %w", err)
	}
	// The page table replaces itself only when its rebuild succeeds, so
	// going first keeps a failed restore from changing anything.
	if err := s.Hier.PT.RestoreState(st.PT); err != nil {
		return fmt.Errorf("core: snapshot does not fit: %w", err)
	}
	s.bind()
	s.SB.Reset()
	s.MB.Reset()
	s.cal.reset()
	s.mshr = s.mshr[:0]
	s.MeterV.Reset()
	*s.Ctr = stats.Counters{}
	s.cycle, s.pending = 0, 0
	// The checks above passed, so none of these fails.
	err := errors.Join(s.L1.RestoreState(st.L1), s.Back.RestoreState(st.Back),
		s.Hier.U.RestoreState(st.UTLB), s.Hier.Main.RestoreState(st.TLB))
	if s.PageD != nil {
		err = errors.Join(err, s.PageD.RestoreState(*st.PageD))
	}
	if s.WDUD != nil {
		err = errors.Join(err, s.WDUD.RestoreState(*st.WDU))
	}
	if s.detector != nil {
		err = errors.Join(err, s.detector.RestoreState(*st.Det))
	}
	return err
}
