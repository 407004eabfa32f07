package buffers

import (
	"testing"
	"testing/quick"

	"malec/internal/mem"
)

func TestSBInsertFull(t *testing.T) {
	sb := NewStoreBuffer(2)
	if !sb.Insert(1, 0x100, 8) || !sb.Insert(2, 0x200, 8) {
		t.Fatal("inserts into empty buffer failed")
	}
	if sb.Insert(3, 0x300, 8) {
		t.Fatal("insert into full buffer succeeded")
	}
	if !sb.Full() || sb.Len() != 2 {
		t.Fatalf("Full=%v Len=%d", sb.Full(), sb.Len())
	}
}

func TestSBForwardFullCover(t *testing.T) {
	sb := NewStoreBuffer(8)
	sb.Insert(1, 0x100, 8)
	full, partial := sb.Forward(0x100, 4) // inside the store
	if !full || partial {
		t.Fatalf("full=%v partial=%v, want forward", full, partial)
	}
	full, partial = sb.Forward(0x104, 8) // overlaps end
	if full || !partial {
		t.Fatalf("full=%v partial=%v, want partial", full, partial)
	}
	full, partial = sb.Forward(0x200, 8) // disjoint
	if full || partial {
		t.Fatalf("full=%v partial=%v, want miss", full, partial)
	}
	st := sb.Stats()
	if st.ForwardHits != 1 || st.PartialHits != 1 || st.Lookups != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSBCommitDrainOrder(t *testing.T) {
	sb := NewStoreBuffer(8)
	mb := NewMergeBuffer(4)
	sb.Insert(1, 0x100, 8)
	sb.Insert(2, 0x200, 8)
	// Committing the younger store first must not drain it past the
	// older one.
	sb.Commit(2)
	sb.DrainCommitted(mb)
	if sb.Len() != 2 || mb.Len() != 0 {
		t.Fatal("younger store drained before older")
	}
	sb.Commit(1)
	sb.DrainCommitted(mb)
	if sb.Len() != 0 || mb.Len() != 2 {
		t.Fatalf("drain incomplete: sb=%d mb=%d", sb.Len(), mb.Len())
	}
}

func TestSBCommitStallOnFullMB(t *testing.T) {
	sb := NewStoreBuffer(32)
	mb := NewMergeBuffer(2)
	// Fill the MB's pending backlog: capacity 2, backlog bound 2*cap.
	for i := 0; i < 8; i++ {
		seq := uint64(i + 1)
		sb.Insert(seq, mem.Addr(i*0x1000), 8)
		sb.Commit(seq)
	}
	sb.DrainCommitted(mb)
	if sb.Len() == 0 {
		t.Fatal("drain should have stalled on MB backlog")
	}
	if sb.Stats().CommitStalls == 0 {
		t.Fatal("commit stall not counted")
	}
	// Draining MBEs unblocks commits.
	for {
		if _, ok := mb.NextMBE(); !ok {
			break
		}
		mb.PopMBE()
	}
	sb.DrainCommitted(mb)
	if sb.Len() != 0 {
		t.Fatalf("drain still stalled: %d left", sb.Len())
	}
}

func TestMBMergeSameLine(t *testing.T) {
	mb := NewMergeBuffer(4)
	mb.Insert(0x100, 8)
	mb.Insert(0x108, 8) // same line
	if mb.Len() != 1 {
		t.Fatalf("same-line stores not merged: %d entries", mb.Len())
	}
	if mb.Stats().Merges != 1 {
		t.Fatal("merge not counted")
	}
	mb.Insert(0x1100, 8)
	if mb.Len() != 2 {
		t.Fatal("different line should allocate")
	}
}

func TestMBEvictionFIFO(t *testing.T) {
	mb := NewMergeBuffer(2)
	mb.Insert(0x1000, 8)
	mb.Insert(0x2000, 8)
	mb.Insert(0x3000, 8) // evicts oldest
	mbe, ok := mb.NextMBE()
	if !ok || mbe.LineVA != mem.Addr(0x1000).LineAddr() {
		t.Fatalf("MBE %v, want eviction of 0x1000's line", mbe.LineVA)
	}
	mb.PopMBE()
	if _, ok := mb.NextMBE(); ok {
		t.Fatal("extra MBE")
	}
}

func TestMBForwardNeedsFullCover(t *testing.T) {
	mb := NewMergeBuffer(4)
	mb.Insert(0x100, 8)
	if !mb.Forward(0x102, 4) {
		t.Fatal("covered load not forwarded")
	}
	if mb.Forward(0x106, 8) {
		t.Fatal("partially covered load forwarded")
	}
	mb.Insert(0x108, 8) // extend the mask
	if !mb.Forward(0x106, 8) {
		t.Fatal("load covered by two merged stores not forwarded")
	}
}

func TestMBMaskProperty(t *testing.T) {
	// A load is forwarded iff every byte it reads was stored.
	f := func(storeOff, loadOff uint8, storeSize, loadSize uint8) bool {
		so := uint32(storeOff) % 56
		lo := uint32(loadOff) % 56
		ss := storeSize%8 + 1
		ls := loadSize%8 + 1
		mb := NewMergeBuffer(4)
		base := mem.Addr(0x4000)
		mb.Insert(base+mem.Addr(so), ss)
		covered := lo >= so && lo+uint32(ls) <= so+uint32(ss)
		return mb.Forward(base+mem.Addr(lo), ls) == covered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMBDrain(t *testing.T) {
	mb := NewMergeBuffer(4)
	mb.Insert(0x1000, 8)
	mb.Insert(0x2000, 8)
	mb.Drain()
	if mb.Len() != 0 || mb.PendingMBEs() != 2 {
		t.Fatalf("drain: live=%d pending=%d", mb.Len(), mb.PendingMBEs())
	}
}

func TestMBPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMergeBuffer(2).PopMBE()
}

func TestMBLineCrossingStoreTruncated(t *testing.T) {
	mb := NewMergeBuffer(4)
	// Store crossing a line boundary: only the in-line bytes merge.
	mb.Insert(0x103C, 16)
	if !mb.Forward(0x103C, 4) {
		t.Fatal("in-line bytes should forward")
	}
	if mb.Forward(0x1040, 4) {
		t.Fatal("bytes past the line must not forward")
	}
}

func TestLoadQueue(t *testing.T) {
	q := NewLoadQueue(2)
	if !q.TryAlloc() || !q.TryAlloc() {
		t.Fatal("alloc failed")
	}
	if q.TryAlloc() {
		t.Fatal("alloc beyond capacity")
	}
	q.Release()
	if !q.TryAlloc() {
		t.Fatal("alloc after release failed")
	}
	if q.Len() != 2 {
		t.Fatalf("len=%d, want 2", q.Len())
	}
}

func TestLoadQueueUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLoadQueue(1).Release()
}
