package mem

import "testing"

// TestSlotIndexAddRemove cross-checks chain membership against a reference
// map through add/remove churn, including colliding keys and duplicates.
func TestSlotIndexAddRemove(t *testing.T) {
	const slots = 16
	ix := new(SlotIndex)
	ix.Init(slots)
	keys := make([]uint32, slots) // key of each linked slot
	linked := make([]bool, slots)

	members := func(key uint32) map[int32]bool {
		got := map[int32]bool{}
		for i := ix.First(key); i >= 0; i = ix.Next(i) {
			got[i] = true
		}
		return got
	}
	check := func() {
		t.Helper()
		for s := 0; s < slots; s++ {
			if !linked[s] {
				continue
			}
			if !members(keys[s])[int32(s)] {
				t.Fatalf("slot %d missing from chain of key %d", s, keys[s])
			}
		}
	}

	rnd := uint32(12345)
	next := func(n uint32) uint32 {
		rnd = rnd*1664525 + 1013904223
		return rnd % n
	}
	for op := 0; op < 10000; op++ {
		s := int32(next(slots))
		if linked[s] {
			ix.Remove(keys[s], s)
			linked[s] = false
			// Removing again must be a harmless no-op.
			ix.Remove(keys[s], s)
		} else {
			keys[s] = next(8) // few distinct keys: chains collide and duplicate
			ix.Add(keys[s], s)
			linked[s] = true
		}
		check()
	}
	// Chains must never contain unlinked slots.
	for key := uint32(0); key < 8; key++ {
		for i := range members(key) {
			if !linked[i] {
				t.Fatalf("chain of key %d contains unlinked slot %d", key, i)
			}
		}
	}
}
