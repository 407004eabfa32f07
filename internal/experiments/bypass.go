package experiments

import (
	"strconv"
	"strings"

	"malec/internal/config"
	"malec/internal/stats"
)

// BypassRow compares MALEC with and without run-time cache bypassing on
// one benchmark.
type BypassRow struct {
	Benchmark string
	// Time/Energy of the bypassing configuration normalized to plain
	// MALEC.
	Time   float64
	Energy float64
	// BypassedFills is the number of L1 allocations avoided.
	BypassedFills uint64
	// FillsPlain / FillsBypass are the L1 fill counts of each variant.
	FillsPlain  uint64
	FillsBypass uint64
}

// BypassResult is the run-time bypassing dataset.
type BypassResult struct {
	Rows []BypassRow
}

// Bypass evaluates the Sec. VI-D suggestion of run-time cache bypassing
// for streaming workloads: pages with persistently high miss rates skip L1
// allocation and way-table maintenance. The paper expects this to recover
// the "negative energy benefits" way determination shows on mcf-like
// workloads and to reduce uTLB/TLB pressure from uWT/WT updates.
func Bypass(opt Options) BypassResult {
	opt = opt.normalize()
	cfgs := []config.Config{config.MALEC(), config.MALECBypass()}
	g := runGrid(cfgs, opt)
	var out BypassResult
	for _, b := range g.Benchmarks {
		plain := g.Results["MALEC"][b]
		byp := g.Results["MALEC_bypass"][b]
		out.Rows = append(out.Rows, BypassRow{
			Benchmark:     b,
			Time:          float64(byp.Cycles) / float64(plain.Cycles),
			Energy:        byp.Energy.Total() / plain.Energy.Total(),
			BypassedFills: byp.Counters.Get(stats.CtrL1BypassedFills),
			FillsPlain:    plain.L1.Fills,
			FillsBypass:   byp.L1.Fills,
		})
	}
	return out
}

// Table renders the bypass evaluation.
func (r BypassResult) Table() string {
	var b strings.Builder
	b.WriteString("### Sec. VI-D extension — run-time cache bypassing for streaming pages\n\n")
	header := []string{"benchmark", "time vs MALEC [%]", "energy vs MALEC [%]",
		"bypassed fills", "fills plain", "fills bypass"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Benchmark,
			pct(row.Time), pct(row.Energy),
			strconv.FormatUint(row.BypassedFills, 10), strconv.FormatUint(row.FillsPlain, 10),
			strconv.FormatUint(row.FillsBypass, 10)})
	}
	b.WriteString(markdownTable(header, rows))
	return b.String()
}
