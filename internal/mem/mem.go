// Package mem defines the address arithmetic and memory access records used
// throughout the MALEC simulator.
//
// The geometry follows the paper's Tab. II: a 32 bit address space, 4 KByte
// pages, a 32 KByte 4-way set-associative L1 with 64 byte lines split over
// four independent single-ported banks, and 128 bit data-array sub-blocks.
package mem

import "fmt"

// Resize returns s with every element zeroed when it has length n, and a
// new slice of length n otherwise: the storage a structure's Init keeps
// when the new geometry fits it.
func Resize[T any](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	clear(s)
	return s
}

// Address space geometry (paper Tab. II).
const (
	// AddrBits is the width of the simulated address space.
	AddrBits = 32
	// AddrMask masks an address to the simulated address space.
	AddrMask = 1<<AddrBits - 1

	// PageShift is log2 of the page size (4 KByte pages).
	PageShift = 12
	// PageSize is the size of a page in bytes.
	PageSize = 1 << PageShift
	// PageBits is the width of a page ID (virtual or physical).
	PageBits = AddrBits - PageShift

	// LineShift is log2 of the cache line size (64 byte lines).
	LineShift = 6
	// LineSize is the cache line size in bytes.
	LineSize = 1 << LineShift
	// LinesPerPage is the number of cache lines covered by one page.
	LinesPerPage = PageSize / LineSize // 64

	// SubBlockShift is log2 of the data-array sub-block size (128 bit).
	SubBlockShift = 4
	// SubBlockSize is the sub-block size in bytes.
	SubBlockSize = 1 << SubBlockShift
	// SubBlocksPerLine is the number of sub-blocks per cache line.
	SubBlocksPerLine = LineSize / SubBlockSize // 4

	// MergeWindowShift is log2 of the load-merge window. MALEC reads two
	// adjacent sub-blocks per access (Sec. IV "SB, MB and L1"), so loads
	// within an aligned 32 byte window can share one data-array read.
	MergeWindowShift = SubBlockShift + 1
	// MergeWindowSize is the merge window size in bytes.
	MergeWindowSize = 1 << MergeWindowShift
)

// Addr is a 32 bit virtual or physical byte address. It is stored in a
// uint64 so intermediate arithmetic cannot overflow; all constructors mask
// to AddrBits.
type Addr uint64

// PageID identifies a 4 KByte page (virtual or physical).
type PageID uint32

// MakeAddr builds an address from a page ID and a page offset.
func MakeAddr(page PageID, offset uint32) Addr {
	return Addr((uint64(page)<<PageShift | uint64(offset&(PageSize-1))) & AddrMask)
}

// Canon returns the address masked to the simulated address space.
func (a Addr) Canon() Addr { return a & AddrMask }

// Page returns the page ID containing the address.
func (a Addr) Page() PageID { return PageID(a.Canon() >> PageShift) }

// PageOffset returns the byte offset of the address within its page.
func (a Addr) PageOffset() uint32 { return uint32(a) & (PageSize - 1) }

// LineAddr returns the address truncated to its cache line boundary.
func (a Addr) LineAddr() Addr { return a.Canon() &^ (LineSize - 1) }

// LineInPage returns the index (0..63) of the address's line within its page.
func (a Addr) LineInPage() uint32 { return (uint32(a) & (PageSize - 1)) >> LineShift }

// LineOffset returns the byte offset of the address within its cache line.
func (a Addr) LineOffset() uint32 { return uint32(a) & (LineSize - 1) }

// MergeWindow returns the address truncated to its 32 byte merge window. Two
// loads with equal merge windows can share a single MALEC data-array read.
func (a Addr) MergeWindow() Addr { return a.Canon() &^ (MergeWindowSize - 1) }

// Bank returns the cache bank (0..NumBanks-1) servicing the address. The
// paper allocates lines 0..3 of a page to separate banks and lines
// 0,4,8,..,60 to the same bank, i.e. the bank is the line index modulo the
// number of banks.
func (a Addr) Bank() int { return int(a.LineInPage() % NumBanks) }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%08x", uint64(a.Canon())) }

// Cache geometry (paper Tab. II).
const (
	// NumBanks is the number of independent single-ported L1 banks.
	NumBanks = 4
	// L1Ways is the L1 associativity.
	L1Ways = 4
	// L1Size is the L1 capacity in bytes (32 KByte).
	L1Size = 32 << 10
	// L1Sets is the total number of L1 sets across all banks.
	L1Sets = L1Size / (LineSize * L1Ways) // 128
	// SetsPerBank is the number of sets within one bank.
	SetsPerBank = L1Sets / NumBanks // 32
)

// SetInBank returns the set index within the address's bank. With four
// banks selected by line-index bits [7:6], the in-bank set index uses the
// next log2(SetsPerBank) address bits.
func (a Addr) SetInBank() int {
	return int((uint32(a.Canon()) >> (LineShift + 2)) % SetsPerBank)
}

// ExcludedWay returns the L1 way that the 2 bit way-table encoding cannot
// represent for the line containing the address (Sec. V): way 0 is deemed
// "unknown" for lines 0..3, way 1 for lines 4..7, and so on, i.e.
// (line/4) mod ways.
func (a Addr) ExcludedWay() int { return int((a.LineInPage() / NumBanks) % L1Ways) }

// ExcludedWayForLine is ExcludedWay for an explicit in-page line index.
func ExcludedWayForLine(lineInPage uint32) int { return int((lineInPage / NumBanks) % L1Ways) }

// AccessKind distinguishes loads from stores.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Access is one dynamic memory reference.
type Access struct {
	Seq  uint64     // dynamic instruction sequence number
	Kind AccessKind // load or store
	VA   Addr       // virtual byte address
	Size uint8      // access size in bytes (1..16)
}

// SameLine reports whether two addresses fall in the same cache line.
func SameLine(a, b Addr) bool { return a.LineAddr() == b.LineAddr() }

// SamePage reports whether two addresses fall in the same page.
func SamePage(a, b Addr) bool { return a.Page() == b.Page() }
