package cache

import "malec/internal/mem"

// StreamDetector implements run-time cache bypassing (Johnson et al.,
// referenced by the paper's Sec. VI-D as the fix for streaming workloads
// like mcf, where way prediction yields "negative energy benefits" and
// frequent uWT/WT updates cause uTLB/TLB conflicts).
//
// Classification is two-level:
//
//   - a global windowed L1 load miss rate identifies streaming *phases*
//     (pointer chasing and array streaming keep it persistently high;
//     cache-friendly phases keep it low);
//   - a small direct-mapped table of 16-page regions protects hot regions
//     during streaming phases: a region with a demonstrated hit history is
//     never bypassed.
//
// Bypassed accesses are not fed back into the statistics (they miss by
// construction, which would lock the classification in); every 32nd bypass
// candidate instead proceeds as a normal probe fill, so the detector can
// reclassify when a phase ends.
type StreamDetector struct {
	// MissThresholdPct is the global windowed miss percentage above
	// which the workload is considered to be in a streaming phase.
	MissThresholdPct uint64
	// MinWindow is the number of observed accesses needed before
	// classification starts.
	MinWindow uint64

	accesses uint64
	misses   uint64

	regions []regionEntry

	bypassed uint64
	decided  uint64
}

type regionEntry struct {
	region uint32
	valid  bool
	hits   uint32
}

// regionShift groups pages into 16-page (64 KByte) protection regions.
const regionShift = 4

// NewStreamDetector returns a detector with size region-protection entries
// (a power of two).
func NewStreamDetector(size int) *StreamDetector {
	d := new(StreamDetector)
	d.Init(size)
	return d
}

// Init readies d as NewStreamDetector(size) builds it, keeping its region
// table when it has that size.
func (d *StreamDetector) Init(size int) {
	if size <= 0 || size&(size-1) != 0 {
		panic("cache: stream detector size must be a positive power of two")
	}
	*d = StreamDetector{MissThresholdPct: 40, MinWindow: 512, regions: mem.Resize(d.regions, size)}
}

// slot returns the region-protection entry for a page.
func (d *StreamDetector) slot(page mem.PageID) *regionEntry {
	region := uint32(page) >> regionShift
	e := &d.regions[region&uint32(len(d.regions)-1)]
	if !e.valid || e.region != region {
		*e = regionEntry{region: region, valid: true}
	}
	return e
}

// Observe records the outcome of a non-bypassed load access.
func (d *StreamDetector) Observe(page mem.PageID, miss bool) {
	// Global window with periodic halving (exponential decay).
	if d.accesses >= 8192 {
		d.accesses /= 2
		d.misses /= 2
	}
	d.accesses++
	if miss {
		d.misses++
	}
	e := d.slot(page)
	if !miss {
		if e.hits < 1<<30 {
			e.hits++
		}
	} else if e.hits > 0 {
		e.hits--
	}
}

// ShouldBypass reports whether a missing load to the page should skip L1
// allocation.
func (d *StreamDetector) ShouldBypass(page mem.PageID) bool {
	if d.accesses < d.MinWindow {
		return false
	}
	if d.misses*100 < d.accesses*d.MissThresholdPct {
		return false // not a streaming phase
	}
	if d.slot(page).hits >= 8 {
		return false // hot region: keep caching it
	}
	d.decided++
	if d.decided%32 == 0 {
		return false // probe: fill normally and observe the outcome
	}
	d.bypassed++
	return true
}

// Bypassed returns how many classification queries chose to bypass.
func (d *StreamDetector) Bypassed() uint64 { return d.bypassed }

// GlobalMissRate returns the current windowed miss rate.
func (d *StreamDetector) GlobalMissRate() float64 {
	if d.accesses == 0 {
		return 0
	}
	return float64(d.misses) / float64(d.accesses)
}
