package cache

// This file is the cache side of the microarchitectural checkpoint layer:
// exported, JSON-able snapshots of the L1, L2/DRAM and stream detector.
// Snapshots capture placement, replacement and statistics state exactly;
// restores rebuild derived structures (the L2 tag array) directly
// from the restored contents and never fire the OnFill/OnEvict hooks —
// a restore is a state transplant, not a replay of the fill history.

// L1State is a complete snapshot of an L1's mutable state.
type L1State struct {
	Lines []Line
	LRU   []uint64
	Clock uint64
	Stats Stats
}

// CaptureState snapshots the cache. The receiver is unmodified.
func (c *L1) CaptureState() L1State {
	st := L1State{
		Lines: make([]Line, len(c.lines)),
		LRU:   make([]uint64, len(c.lru)),
		Clock: c.clock,
		Stats: c.stats,
	}
	copy(st.Lines, c.lines)
	copy(st.LRU, c.lru)
	return st
}

// RestoreState replaces the cache's state with a snapshot taken from a
// same-geometry L1. No OnFill/OnEvict hooks fire.
func (c *L1) RestoreState(st L1State) {
	copy(c.lines, st.Lines)
	copy(c.lru, st.LRU)
	c.clock = st.Clock
	c.stats = st.Stats
}

// L2State is a complete snapshot of an L2's mutable state.
type L2State struct {
	Lines      []Line
	LRU        []uint64
	Clock      uint64
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// CaptureState snapshots the L2.
func (l *L2) CaptureState() L2State {
	st := L2State{
		Lines:      make([]Line, len(l.lines)),
		LRU:        make([]uint64, len(l.lru)),
		Clock:      l.clock,
		Accesses:   l.accesses,
		Hits:       l.hits,
		Misses:     l.misses,
		Writebacks: l.writebacks,
	}
	copy(st.Lines, l.lines)
	copy(st.LRU, l.lru)
	return st
}

// RestoreState replaces the L2's state with a snapshot from a
// same-geometry L2, rebuilding the tag array from the restored lines.
func (l *L2) RestoreState(st L2State) {
	copy(l.lines, st.Lines)
	copy(l.lru, st.LRU)
	l.clock = st.Clock
	l.accesses = st.Accesses
	l.hits = st.Hits
	l.misses = st.Misses
	l.writebacks = st.Writebacks
	for i := range l.lines {
		l.tags[i] = 0
		if l.lines[i].Valid {
			l.tags[i] = lineTag(l.lines[i].PLine)
		}
	}
}

// BacksideState bundles the L2 snapshot with the DRAM access count.
type BacksideState struct {
	L2           L2State
	DRAMAccesses uint64
}

// CaptureState snapshots the backside.
func (b *Backside) CaptureState() BacksideState {
	return BacksideState{L2: b.L2.CaptureState(), DRAMAccesses: b.DRAM.accesses}
}

// RestoreState restores the backside from a snapshot.
func (b *Backside) RestoreState(st BacksideState) {
	b.L2.RestoreState(st.L2)
	b.DRAM.accesses = st.DRAMAccesses
}

// DetectorRegion is the exported form of one region-protection entry.
type DetectorRegion struct {
	Region uint32
	Valid  bool
	Hits   uint32
}

// DetectorState is a complete snapshot of a StreamDetector.
type DetectorState struct {
	Accesses uint64
	Misses   uint64
	Regions  []DetectorRegion
	Bypassed uint64
	Decided  uint64
}

// CaptureState snapshots the detector.
func (d *StreamDetector) CaptureState() DetectorState {
	st := DetectorState{
		Accesses: d.accesses,
		Misses:   d.misses,
		Regions:  make([]DetectorRegion, len(d.regions)),
		Bypassed: d.bypassed,
		Decided:  d.decided,
	}
	for i, r := range d.regions {
		st.Regions[i] = DetectorRegion{Region: r.region, Valid: r.valid, Hits: r.hits}
	}
	return st
}

// RestoreState restores the detector from a same-size snapshot.
func (d *StreamDetector) RestoreState(st DetectorState) {
	d.accesses = st.Accesses
	d.misses = st.Misses
	d.bypassed = st.Bypassed
	d.decided = st.Decided
	for i, r := range st.Regions {
		d.regions[i] = regionEntry{region: r.Region, valid: r.Valid, hits: r.Hits}
	}
}
