package core

import "math"

// NoWork is the sentinel returned by calendar.next and Interface.NextWork
// when nothing is scheduled. It is far enough below the int64 range that
// callers can add latencies to it without wrapping.
const NoWork int64 = math.MaxInt64 / 4

// calendar is a ring-buffer calendar queue mapping future cycles to the
// loads completing then. It replaces the map[int64][]Completion the
// scheduler used to allocate into on every load: slots are addressed by
// cycle modulo a power-of-two capacity, and each slot's backing array is
// reused across laps, so steady-state scheduling performs no allocation.
//
// Invariant: events are only scheduled for cycles strictly after the
// current one and within capacity cycles of it (schedule grows the ring on
// the rare occasion a completion lands beyond the horizon), so a slot is
// always drained by take before a later cycle can map onto it.
//
// Occupancy is tracked alongside: each slot's population is the length of
// its slice, and events counts the scheduled completions across all slots,
// letting next answer "when is the earliest future completion?" without
// scanning an empty ring.
type calendar struct {
	slots  [][]Completion
	mask   int64
	events int // scheduled completions not yet taken
}

// slotCap is the pre-allocated per-slot capacity. Four matches the result
// bus count, the common bound on loads completing in one cycle; slots that
// ever exceed it fall back to ordinary append growth.
const slotCap = 4

// makeSlots carves n empty slots with capacity slotCap out of one slab, so
// building (or growing) a ring costs two allocations, not n.
func makeSlots(n int) [][]Completion {
	slab := make([]Completion, n*slotCap)
	slots := make([][]Completion, n)
	for i := range slots {
		slots[i] = slab[i*slotCap : i*slotCap : (i+1)*slotCap]
	}
	return slots
}

// newCalendar returns a calendar able to hold events up to minHorizon
// cycles ahead without growing.
func newCalendar(minHorizon int) *calendar {
	q := new(calendar)
	q.init(minHorizon)
	return q
}

// init readies q as newCalendar(minHorizon) builds it, keeping its ring
// when that has the size minHorizon asks for.
func (q *calendar) init(minHorizon int) {
	n := 64
	for n <= minHorizon {
		n <<= 1
	}
	if len(q.slots) != n {
		*q = calendar{slots: makeSlots(n), mask: int64(n - 1)}
		return
	}
	q.reset()
}

// reset drops every scheduled completion. The ring keeps its size: it
// only bounds how far ahead completions fit without growing.
func (q *calendar) reset() {
	for i := range q.slots {
		q.slots[i] = q.slots[i][:0]
	}
	q.events = 0
}

// schedule files c for cycle at, where now is the current cycle and
// now < at.
func (q *calendar) schedule(now, at int64, c Completion) {
	if at-now >= int64(len(q.slots)) {
		q.grow(now, at)
	}
	i := at & q.mask
	q.slots[i] = append(q.slots[i], c)
	q.events++
}

// grow enlarges the ring so that at fits within the horizon, rehoming the
// live slots to their new positions. Only the strictly-future cycles
// (now, now+len) are carried over: the slot drained at cycle now may still
// be aliased by the slice take returned this cycle, so it must not be
// reused for a future cycle.
func (q *calendar) grow(now, at int64) {
	old := q.slots
	oldMask := q.mask
	n := len(old)
	for at-now >= int64(n) {
		n <<= 1
	}
	q.slots = makeSlots(n)
	q.mask = int64(n - 1)
	for c := now + 1; c < now+int64(len(old)); c++ {
		q.slots[c&q.mask] = old[c&oldMask]
	}
}

// take removes and returns the completions due at cycle. The returned
// slice is only valid until the slot's cycle comes around again (at least
// one full lap of the ring later); callers consume it within the same
// simulated cycle.
func (q *calendar) take(cycle int64) []Completion {
	i := cycle & q.mask
	due := q.slots[i]
	if len(due) > 0 {
		q.slots[i] = due[:0]
		q.events -= len(due)
	}
	return due
}

// population returns the number of completions scheduled for the given
// cycle (the slot's current population).
func (q *calendar) population(cycle int64) int {
	return len(q.slots[cycle&q.mask])
}

// next returns the cycle of the earliest completion scheduled strictly
// after now, or NoWork when the calendar is empty. By the scheduling
// invariant every live event lies within (now, now+len), so the scan walks
// forward from now+1 and stops at the first populated slot — its cost is
// the distance to the next event, not the ring size.
func (q *calendar) next(now int64) int64 {
	if q.events == 0 {
		return NoWork
	}
	for k := int64(1); k < int64(len(q.slots)); k++ {
		if len(q.slots[(now+k)&q.mask]) > 0 {
			return now + k
		}
	}
	return NoWork
}
