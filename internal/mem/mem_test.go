package mem

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if LinesPerPage != 64 {
		t.Errorf("LinesPerPage = %d, want 64", LinesPerPage)
	}
	if SubBlocksPerLine != 4 {
		t.Errorf("SubBlocksPerLine = %d, want 4", SubBlocksPerLine)
	}
	if L1Sets != 128 {
		t.Errorf("L1Sets = %d, want 128", L1Sets)
	}
	if SetsPerBank != 32 {
		t.Errorf("SetsPerBank = %d, want 32", SetsPerBank)
	}
	if MergeWindowSize != 32 {
		t.Errorf("MergeWindowSize = %d, want 32", MergeWindowSize)
	}
}

func TestMakeAddrRoundTrip(t *testing.T) {
	f := func(page uint32, off uint32) bool {
		p := PageID(page & (1<<PageBits - 1))
		o := off & (PageSize - 1)
		a := MakeAddr(p, o)
		return a.Page() == p && a.PageOffset() == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrCanonMasks(t *testing.T) {
	a := Addr(1<<40 | 0x1234)
	if a.Canon() != 0x1234 {
		t.Errorf("Canon() = %v, want 0x1234", a.Canon())
	}
}

func TestLineArithmetic(t *testing.T) {
	a := Addr(0x12345678)
	if a.LineAddr()%LineSize != 0 {
		t.Errorf("LineAddr not line aligned: %v", a.LineAddr())
	}
	if a.LineAddr() > a.Canon() || a.Canon()-a.LineAddr() >= LineSize {
		t.Errorf("LineAddr %v not containing %v", a.LineAddr(), a)
	}
	if got := a.LineOffset(); got != uint32(a.Canon())%LineSize {
		t.Errorf("LineOffset = %d", got)
	}
}

func TestLineInPageProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw).Canon()
		l := a.LineInPage()
		return l < LinesPerPage &&
			l == uint32(a.PageOffset())>>LineShift
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankAssignment(t *testing.T) {
	// The paper allocates lines 0..3 of a page to separate banks and
	// lines 0,4,8,... to the same bank.
	base := MakeAddr(7, 0)
	seen := map[int]bool{}
	for l := 0; l < 4; l++ {
		b := (base + Addr(l*LineSize)).Bank()
		if seen[b] {
			t.Fatalf("lines 0..3 share bank %d", b)
		}
		seen[b] = true
	}
	b0 := base.Bank()
	for l := 0; l < LinesPerPage; l += 4 {
		if got := (base + Addr(l*LineSize)).Bank(); got != b0 {
			t.Fatalf("line %d bank %d, want %d", l, got, b0)
		}
	}
}

func TestExcludedWayPattern(t *testing.T) {
	// Lines 0..3 exclude way 0, lines 4..7 way 1, etc. (Sec. V).
	for l := uint32(0); l < LinesPerPage; l++ {
		want := int(l/4) % L1Ways
		if got := ExcludedWayForLine(l); got != want {
			t.Fatalf("line %d excluded way %d, want %d", l, got, want)
		}
		a := MakeAddr(3, l*LineSize)
		if got := a.ExcludedWay(); got != want {
			t.Fatalf("addr line %d excluded way %d, want %d", l, got, want)
		}
	}
}

func TestMergeWindow(t *testing.T) {
	a := MakeAddr(1, 0x40) // line 1 start
	b := a + 16            // same 32 byte window
	c := a + 32            // next window, same line
	if a.MergeWindow() != b.MergeWindow() {
		t.Errorf("a,b should share a merge window")
	}
	if a.MergeWindow() == c.MergeWindow() {
		t.Errorf("a,c should not share a merge window")
	}
	if !SameLine(a, c) {
		t.Errorf("a,c should share a line")
	}
}

func TestSetInBankRange(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw).Canon()
		s := a.SetInBank()
		return s >= 0 && s < SetsPerBank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSamePageSameLine(t *testing.T) {
	a := MakeAddr(5, 100)
	b := MakeAddr(5, 3000)
	if !SamePage(a, b) {
		t.Error("same page expected")
	}
	if SameLine(a, b) {
		t.Error("different lines expected")
	}
	if SamePage(a, MakeAddr(6, 100)) {
		t.Error("different pages expected")
	}
}

func TestAccessKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("access kind names wrong")
	}
}

func TestAddrString(t *testing.T) {
	if got := Addr(0x1234).String(); got != "0x00001234" {
		t.Errorf("String() = %q", got)
	}
}

// TestPageSetSlotsAt16KPages pins the set's size at ptrchase's footprint:
// 16,384 pages fit in 32,768 slots, because the set doubles at half
// occupancy, and a Reset to that size keeps them.
func TestPageSetSlotsAt16KPages(t *testing.T) {
	const pages = 16384
	var s PageSet
	s.Reset(4096)
	for p := PageID(0); p < pages; p++ {
		s.Add(p * 7)
	}
	if s.Len() != pages || len(s.slots) != 2*pages {
		t.Fatalf("%d pages in %d slots, want %d in %d", s.Len(), len(s.slots), pages, 2*pages)
	}
	s.Reset(2 * pages)
	if len(s.slots) != 2*pages || s.Len() != 0 {
		t.Fatalf("Reset to %d slots left %d slots and %d pages", 2*pages, len(s.slots), s.Len())
	}
}
