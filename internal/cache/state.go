package cache

// This file is the cache side of the microarchitectural checkpoint layer:
// exported, JSON-able snapshots of the L1, L2/DRAM and stream detector.
// Snapshots capture placement, replacement and statistics state exactly;
// restores never fire the OnFill/OnEvict hooks — a restore is a state
// transplant, not a replay of the fill history. A restore first checks
// that the snapshot fits the structure's geometry and changes nothing
// when it does not.

import "fmt"

// lenErr reports a snapshot array whose length does not match the
// structure it is restored into.
func lenErr(what string, got, want int) error {
	return fmt.Errorf("cache: snapshot %s has %d entries, want %d", what, got, want)
}

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

// CheckState reports whether st fits the cache's geometry.
func (c *L1) CheckState(st L1State) error {
	if len(st.Lines) != len(c.lines) {
		return lenErr("L1 lines", len(st.Lines), len(c.lines))
	}
	if len(st.LRU) != len(c.lru) {
		return lenErr("L1 LRU", len(st.LRU), len(c.lru))
	}
	return nil
}

// RestoreState replaces the cache's state with a snapshot taken from a
// same-geometry L1. No OnFill/OnEvict hooks fire.
func (c *L1) RestoreState(st L1State) error {
	if err := c.CheckState(st); err != nil {
		return err
	}
	copy(c.lines, st.Lines)
	copy(c.lru, st.LRU)
	c.clock = st.Clock
	c.stats = st.Stats
	return nil
}

// L2State is a complete snapshot of an L2's mutable state: the tag array
// and each way's LRU rank within its set. Replacement only compares the
// stamps of one set, so ranks carry everything the stamps do.
type L2State struct {
	// Tags is the tag array (line ID + 1, 0 for an invalid way).
	Tags []uint32
	// Ranks holds each way's LRU position within its set: 1 for the
	// least recently used valid way up to the number of valid ways for
	// the most recent, 0 for an invalid way.
	Ranks      []uint8
	Clock      uint64
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// CaptureState snapshots the L2.
func (l *L2) CaptureState() L2State {
	st := L2State{
		Tags:       make([]uint32, len(l.tags)),
		Ranks:      make([]uint8, len(l.lru)),
		Clock:      l.clock,
		Accesses:   l.accesses,
		Hits:       l.hits,
		Misses:     l.misses,
		Writebacks: l.writebacks,
	}
	copy(st.Tags, l.tags)
	for base := 0; base < len(l.lru); base += l.ways {
		set := l.lru[base : base+l.ways]
		for w, stamp := range set {
			if l.tags[base+w] == 0 {
				continue
			}
			// Valid stamps in a set are distinct and non-zero, so
			// counting the older ones ranks the way.
			rank := uint8(1)
			for v, other := range set {
				if l.tags[base+v] != 0 && other < stamp {
					rank++
				}
			}
			st.Ranks[base+w] = rank
		}
	}
	return st
}

// CheckState reports whether st fits the L2's geometry: one tag and one
// rank per way, a rank for exactly the valid ways, none above the
// associativity.
func (l *L2) CheckState(st L2State) error {
	if len(st.Tags) != len(l.tags) {
		return lenErr("L2 tags", len(st.Tags), len(l.tags))
	}
	if len(st.Ranks) != len(l.lru) {
		return lenErr("L2 ranks", len(st.Ranks), len(l.lru))
	}
	for i, r := range st.Ranks {
		if int(r) > l.ways || (r == 0) != (st.Tags[i] == 0) {
			return fmt.Errorf("cache: snapshot L2 way %d has rank %d for tag %d", i, r, st.Tags[i])
		}
	}
	return nil
}

// RestoreState replaces the L2's state with a snapshot from a
// same-geometry L2. Each rank becomes its way's stamp: victim choice only
// orders stamps within a set, invalid ways keep stamp 0, and every rank is
// at most the set's valid lines and so at most Clock, so stamps issued
// after the restore still sort after the restored ones.
func (l *L2) RestoreState(st L2State) error {
	if err := l.CheckState(st); err != nil {
		return err
	}
	copy(l.tags, st.Tags)
	for i, r := range st.Ranks {
		l.lru[i] = uint64(r)
	}
	l.clock = st.Clock
	l.accesses = st.Accesses
	l.hits = st.Hits
	l.misses = st.Misses
	l.writebacks = st.Writebacks
	return nil
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

// CheckState reports whether st fits the backside's geometry.
func (b *Backside) CheckState(st BacksideState) error { return b.L2.CheckState(st.L2) }

// RestoreState restores the backside from a snapshot.
func (b *Backside) RestoreState(st BacksideState) error {
	if err := b.L2.RestoreState(st.L2); err != nil {
		return err
	}
	b.DRAM.accesses = st.DRAMAccesses
	return nil
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

// CheckState reports whether st fits the detector's region table.
func (d *StreamDetector) CheckState(st DetectorState) error {
	if len(st.Regions) != len(d.regions) {
		return lenErr("detector regions", len(st.Regions), len(d.regions))
	}
	return nil
}

// RestoreState restores the detector from a same-size snapshot.
func (d *StreamDetector) RestoreState(st DetectorState) error {
	if err := d.CheckState(st); err != nil {
		return err
	}
	d.accesses = st.Accesses
	d.misses = st.Misses
	d.bypassed = st.Bypassed
	d.decided = st.Decided
	for i, r := range st.Regions {
		d.regions[i] = regionEntry{region: r.Region, valid: r.Valid, hits: r.Hits}
	}
	return nil
}
