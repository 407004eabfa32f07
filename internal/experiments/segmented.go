package experiments

import (
	"fmt"
	"strings"

	"malec/internal/config"
	"malec/internal/waytable"
)

// SegmentedRow is one segmented-WT configuration data point.
type SegmentedRow struct {
	Name         string
	ChunkLines   int
	PoolFraction float64
	Coverage     float64
	// Time and Energy are normalized to the full-table MALEC config.
	Time   float64
	Energy float64
	// StorageBits is the WT+uWT storage cost (area/leakage proxy).
	StorageBits int
}

// SegmentedResult is the Sec. VI-D segmentation extension dataset.
type SegmentedResult struct {
	Rows []SegmentedRow
}

// SegmentedWT evaluates the paper's proposed way-table segmentation
// ("allocating and replacing WT chunks in a FIFO or LRU manner, their
// number could be smaller than required to represent full pages"): chunked
// storage at 100%, 50% and 25% of the full-table capacity.
func SegmentedWT(opt Options) SegmentedResult {
	opt = opt.normalize()
	full := config.MALEC()
	cfgs := []config.Config{full}
	type variant struct {
		chunk int
		frac  float64
	}
	variants := []variant{{16, 1.0}, {16, 0.5}, {16, 0.25}}
	for _, v := range variants {
		c := config.MALECSegmentedWT(v.chunk, v.frac)
		c.Name = fmt.Sprintf("MALEC_seg%dx%.0f%%", v.chunk, v.frac*100)
		cfgs = append(cfgs, c)
	}
	g := runGrid(cfgs, opt)
	var out SegmentedResult
	for i, c := range g.Configs {
		row := SegmentedRow{Name: c}
		if i > 0 {
			row.ChunkLines = variants[i-1].chunk
			row.PoolFraction = variants[i-1].frac
		}
		row.Coverage = g.coverage(c)
		row.Time = g.ratio(c, full.Name, cycles)
		row.Energy = g.ratio(c, full.Name, totalEnergy)
		row.StorageBits = storageBits(cfgs[i])
		out.Rows = append(out.Rows, row)
	}
	return out
}

// storageBits computes the WT+uWT storage cost of a configuration.
func storageBits(c config.Config) int {
	if c.WTChunkLines <= 0 {
		return (c.TLBEntries + c.UTLBEntries) * waytable.BitsPerEntry
	}
	bits := 0
	for _, slots := range []int{c.TLBEntries, c.UTLBEntries} {
		chunksPerPage := 64 / c.WTChunkLines
		pool := int(float64(slots*chunksPerPage) * c.WTPoolFraction)
		if pool < 1 {
			pool = 1
		}
		t := waytable.NewSegmentedTable("x", slots, c.WTChunkLines, pool)
		bits += t.StorageBits()
	}
	return bits
}

// Table renders the segmentation evaluation.
func (r SegmentedResult) Table() string {
	var b strings.Builder
	b.WriteString("### Sec. VI-D extension — segmented way tables (FIFO chunk pool)\n\n")
	header := []string{"configuration", "storage [bits]", "coverage [%]",
		"time vs full WT [%]", "energy vs full WT [%]"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name,
			fmt.Sprintf("%d", row.StorageBits),
			pct(row.Coverage), pct(row.Time), pct(row.Energy)})
	}
	b.WriteString(markdownTable(header, rows))
	return b.String()
}
