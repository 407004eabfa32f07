package experiments

import (
	"fmt"
	"strings"

	"malec/internal/config"
)

// WDURow is one configuration of the Sec. VI-C comparison.
type WDURow struct {
	Name     string
	Coverage float64 // way-determination coverage (paper: WT 94%, WDU-8/16/32 68/76/78%)
	Energy   float64 // total energy normalized to the WT configuration
	Dynamic  float64 // dynamic energy normalized to the WT configuration
}

// WDUResult is the Sec. VI-C dataset.
type WDUResult struct {
	Rows []WDURow
}

// WDUComparison substitutes 8/16/32-entry WDUs for the way tables and
// compares coverage and energy (paper: +4%, +5%, +8% energy; the WDU needs
// four fully-associative lookup ports to sustain MALEC's parallelism, and
// its coverage is well below the WT's).
func WDUComparison(opt Options) WDUResult {
	opt = opt.normalize()
	cfgs := []config.Config{
		config.MALEC(),
		config.MALECWithWDU(8),
		config.MALECWithWDU(16),
		config.MALECWithWDU(32),
	}
	g := runGrid(cfgs, opt)
	ref := cfgs[0].Name
	var out WDUResult
	for _, c := range g.Configs {
		out.Rows = append(out.Rows, WDURow{
			Name:     c,
			Coverage: g.coverage(c),
			Energy:   g.ratio(c, ref, totalEnergy),
			Dynamic:  g.ratio(c, ref, dynamicEnergy),
		})
	}
	return out
}

// Table renders the comparison as markdown.
func (r WDUResult) Table() string {
	var b strings.Builder
	b.WriteString("### Sec. VI-C — Page-Based Way Determination (WT) vs Way Determination Unit (WDU)\n\n")
	header := []string{"scheme", "coverage [%]", "total energy vs WT [%]", "dynamic energy vs WT [%]"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name, pct(row.Coverage),
			fmt.Sprintf("%+.1f", 100*(row.Energy-1)),
			fmt.Sprintf("%+.1f", 100*(row.Dynamic-1))})
	}
	b.WriteString(markdownTable(header, rows))
	return b.String()
}

// CoverageRow is one configuration of the Sec. V feedback ablation.
type CoverageRow struct {
	Name     string
	Coverage float64
}

// CoverageResult is the Sec. V feedback-update ablation dataset.
type CoverageResult struct {
	Rows []CoverageRow
}

// CoverageAblation measures way-table coverage with and without the
// last-entry register feedback update (paper: 94% vs 75%).
func CoverageAblation(opt Options) CoverageResult {
	opt = opt.normalize()
	cfgs := []config.Config{config.MALEC(), config.MALECNoFeedback()}
	g := runGrid(cfgs, opt)
	var out CoverageResult
	for _, c := range g.Configs {
		out.Rows = append(out.Rows, CoverageRow{Name: c, Coverage: g.coverage(c)})
	}
	return out
}

// Table renders the ablation as markdown.
func (r CoverageResult) Table() string {
	var b strings.Builder
	b.WriteString("### Sec. V — uWT feedback (last-entry register) ablation\n\n")
	header := []string{"configuration", "coverage [%]"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name, pct(row.Coverage)})
	}
	b.WriteString(markdownTable(header, rows))
	return b.String()
}
