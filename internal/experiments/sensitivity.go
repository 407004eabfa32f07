package experiments

import (
	"fmt"
	"strings"

	"malec/internal/config"
)

// Sensitivity experiments for Sec. VI-D, which discusses MALEC's
// dependence on L1 latency, the number of result buses, the arbitration
// unit's comparator budget, and the sub-blocked merge window.

// sweepPoint is one MALEC variant of a one-parameter sweep: the swept
// value, the geomean cycle ratio to the reference variant and the share
// of loads serviced by merging.
type sweepPoint struct {
	value        int
	time, merged float64
}

// malecSweep runs MALEC with one int field, written by set, at each of
// values (variant names format the value with format) and returns the
// variants in values order, timed against the variant at ref.
func malecSweep(opt Options, format string, values []int, ref int, set func(c *config.Config, v int)) []sweepPoint {
	cfgs := make([]config.Config, len(values))
	for i, v := range values {
		cfgs[i] = config.MALEC()
		cfgs[i].Name = fmt.Sprintf(format, v)
		set(&cfgs[i], v)
	}
	g := runGrid(cfgs, opt)
	points := make([]sweepPoint, len(values))
	for i, v := range values {
		points[i] = sweepPoint{value: v,
			time:   g.ratio(cfgs[i].Name, fmt.Sprintf(format, ref), cycles),
			merged: g.mergedShare(cfgs[i].Name)}
	}
	return points
}

// LatencyRow is one L1-latency point for one interface.
type LatencyRow struct {
	Config  string
	Latency int
	// Time is the execution time normalized to the 2-cycle MALEC config.
	Time float64
}

// LatencyResult is the L1 latency sweep dataset.
type LatencyResult struct {
	Rows []LatencyRow
}

// LatencySensitivity sweeps the L1 access latency from 1 to 4 cycles for
// Base2ld1st and MALEC, extending the paper's two spot variants
// (Base2ld1st_1cycleL1, MALEC_3cycleL1).
func LatencySensitivity(opt Options) LatencyResult {
	opt = opt.normalize()
	var cfgs []config.Config
	for lat := 1; lat <= 4; lat++ {
		b := config.Base2ld1st()
		b.Name = fmt.Sprintf("Base2ld1st_%dc", lat)
		b.L1Latency = lat
		m := config.MALEC()
		m.Name = fmt.Sprintf("MALEC_%dc", lat)
		m.L1Latency = lat
		cfgs = append(cfgs, b, m)
	}
	g := runGrid(cfgs, opt)
	var out LatencyResult
	for lat := 1; lat <= 4; lat++ {
		for _, base := range []string{"Base2ld1st", "MALEC"} {
			t := g.ratio(fmt.Sprintf("%s_%dc", base, lat), "MALEC_2c", cycles)
			out.Rows = append(out.Rows, LatencyRow{Config: base, Latency: lat, Time: t})
		}
	}
	return out
}

// Table renders the latency sweep.
func (r LatencyResult) Table() string {
	var b strings.Builder
	b.WriteString("### Sec. VI-D — L1 access latency sweep [exec. time, % of 2-cycle MALEC]\n\n")
	header := []string{"L1 latency", "Base2ld1st", "MALEC"}
	byLat := map[int]map[string]float64{}
	for _, row := range r.Rows {
		if byLat[row.Latency] == nil {
			byLat[row.Latency] = map[string]float64{}
		}
		byLat[row.Latency][row.Config] = row.Time
	}
	var rows [][]string
	for lat := 1; lat <= 4; lat++ {
		rows = append(rows, []string{fmt.Sprintf("%d cycles", lat),
			pct(byLat[lat]["Base2ld1st"]), pct(byLat[lat]["MALEC"])})
	}
	b.WriteString(markdownTable(header, rows))
	return b.String()
}

// BusRow is one result-bus count data point.
type BusRow struct {
	Buses int
	// Time is normalized to the 4-bus configuration.
	Time float64
	// MergedFrac is the fraction of loads serviced by merging.
	MergedFrac float64
}

// BusResult is the result-bus sweep dataset.
type BusResult struct {
	Rows []BusRow
}

// ResultBusSweep varies MALEC's result buses (the number of loads serviced
// per cycle) from 1 to 4. The paper: "MALEC's performance is primarily
// limited [by] the number of memory references issued per cycle and the
// number of available result busses."
func ResultBusSweep(opt Options) BusResult {
	var out BusResult
	for _, p := range malecSweep(opt, "MALEC_%dbus", []int{1, 2, 3, 4}, 4,
		func(c *config.Config, v int) { c.MaxLoadsPerCycle = v }) {
		out.Rows = append(out.Rows, BusRow{Buses: p.value, Time: p.time, MergedFrac: p.merged})
	}
	return out
}

// Table renders the bus sweep.
func (r BusResult) Table() string {
	var b strings.Builder
	b.WriteString("### Sec. VI-D — result bus sweep [exec. time, % of 4-bus MALEC]\n\n")
	header := []string{"result buses", "time", "merged loads [%]"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d", row.Buses),
			pct(row.Time), pct(row.MergedFrac)})
	}
	b.WriteString(markdownTable(header, rows))
	return b.String()
}

// CompareLimitRow is one arbitration comparator budget data point.
type CompareLimitRow struct {
	Limit      int
	Time       float64 // normalized to unlimited comparators
	MergedFrac float64
}

// CompareLimitResult is the comparator budget dataset.
type CompareLimitResult struct {
	Rows []CompareLimitRow
}

// CompareLimitAblation varies how many consecutive input-buffer entries the
// arbitration unit compares for merging. The paper limits it to three and
// claims "the performance degradation due to this limitation is less than
// 0.5%".
func CompareLimitAblation(opt Options) CompareLimitResult {
	var out CompareLimitResult
	for _, p := range malecSweep(opt, "MALEC_cmp%d", []int{1, 3, 16}, 16,
		func(c *config.Config, v int) { c.MergeCompareLimit = v }) {
		out.Rows = append(out.Rows, CompareLimitRow{Limit: p.value, Time: p.time, MergedFrac: p.merged})
	}
	return out
}

// Table renders the comparator ablation.
func (r CompareLimitResult) Table() string {
	var b strings.Builder
	b.WriteString("### Sec. IV — arbitration comparator budget (paper: 3 comparators cost <0.5%)\n\n")
	header := []string{"compare limit", "time vs unlimited", "merged loads [%]"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d", row.Limit),
			pct(row.Time), pct(row.MergedFrac)})
	}
	b.WriteString(markdownTable(header, rows))
	return b.String()
}

// MergeWindowRow is one merge-granularity data point.
type MergeWindowRow struct {
	WindowBytes int
	MergedFrac  float64
	Time        float64 // normalized to the 32-byte window
}

// MergeWindowResult is the sub-block window dataset.
type MergeWindowResult struct {
	Rows []MergeWindowRow
}

// MergeWindowAblation compares merge granularities: a single 128-bit
// sub-block (16 B), the paper's two-adjacent-sub-blocks read (32 B, which
// "doubles the probability for loads to be merged"), and idealized
// whole-line sharing (64 B).
func MergeWindowAblation(opt Options) MergeWindowResult {
	var out MergeWindowResult
	for _, p := range malecSweep(opt, "MALEC_w%d", []int{16, 32, 64}, 32,
		func(c *config.Config, v int) { c.MergeWindowBytes = v }) {
		out.Rows = append(out.Rows, MergeWindowRow{WindowBytes: p.value, MergedFrac: p.merged, Time: p.time})
	}
	return out
}

// Table renders the merge-window ablation.
func (r MergeWindowResult) Table() string {
	var b strings.Builder
	b.WriteString("### Sec. IV — sub-block merge window (paper: 2 sub-blocks double merging)\n\n")
	header := []string{"window [bytes]", "merged loads [%]", "time vs 32B"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d", row.WindowBytes),
			pct(row.MergedFrac), pct(row.Time)})
	}
	b.WriteString(markdownTable(header, rows))
	return b.String()
}
