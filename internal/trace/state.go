package trace

// Generator state capture: the trace-generator side of the checkpoint
// layer. A generator snapshot is a few hundred bytes (RNG state and stream
// cursors), and restoring one resumes the identical record sequence from
// the captured index — which is what lets a warmed-checkpoint hit skip
// generating the fast-forwarded stretch of the trace instead of replaying
// it record by record.

import "malec/internal/mem"

// StreamState is the exported form of one access stream.
type StreamState struct {
	Cur      mem.Addr
	BasePage uint32
	Region   uint32
}

// GeneratorState is a complete snapshot of a Generator's dynamic state.
// The profile is not included: a snapshot may only be restored into a
// generator built from the same (profile, seed) pair, which the
// checkpoint content addressing guarantees.
type GeneratorState struct {
	Rnd          uint64
	Streams      []StreamState
	Active       int
	Idx          uint64
	LastLoadIdx  uint64
	HaveLoad     bool
	StoreStream  StreamState
	LineBaseIdx  uint64
	LastLoadAddr mem.Addr
}

// CaptureState snapshots the generator. The receiver is unmodified.
func (g *Generator) CaptureState() *GeneratorState {
	st := &GeneratorState{
		Rnd:          g.rnd.State(),
		Streams:      make([]StreamState, len(g.streams)),
		Active:       g.active,
		Idx:          g.idx,
		LastLoadIdx:  g.lastLoadIdx,
		HaveLoad:     g.haveLoad,
		StoreStream:  StreamState{Cur: g.storeStream.cur, BasePage: g.storeStream.basePage, Region: g.storeStream.region},
		LineBaseIdx:  g.lineBaseIdx,
		LastLoadAddr: g.lastLoadAddr,
	}
	for i, s := range g.streams {
		st.Streams[i] = StreamState{Cur: s.cur, BasePage: s.basePage, Region: s.region}
	}
	return st
}

// RestoreState resumes the generator from a snapshot captured on a
// generator with the same profile and seed. Reports false (leaving the
// receiver untouched) when the snapshot's shape does not match.
func (g *Generator) RestoreState(st *GeneratorState) bool {
	if st == nil || len(st.Streams) != len(g.streams) {
		return false
	}
	g.rnd.SetState(st.Rnd)
	for i, s := range st.Streams {
		g.streams[i] = stream{cur: s.Cur, basePage: s.BasePage, region: s.Region}
	}
	g.active = st.Active
	g.idx = st.Idx
	g.lastLoadIdx = st.LastLoadIdx
	g.haveLoad = st.HaveLoad
	g.storeStream = stream{cur: st.StoreStream.Cur, basePage: st.StoreStream.BasePage, region: st.StoreStream.Region}
	g.lineBaseIdx = st.LineBaseIdx
	g.lastLoadAddr = st.LastLoadAddr
	return true
}
