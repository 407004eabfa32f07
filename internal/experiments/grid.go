// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. III and VI): Fig. 1 (page locality), the Sec. III
// motivation scalars, Fig. 4a/4b (normalized execution time and energy for
// the five configurations), the Sec. VI-C WT-vs-WDU comparison, the Sec. V
// coverage ablation, the Sec. VI-B merge-contribution analysis, and the
// 3-of-4 way-allocation constraint check.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/stats"
	"malec/internal/trace"
)

// Options controls experiment scale. The zero value is usable: defaults are
// applied by normalize.
type Options struct {
	// Instructions per benchmark (default 300000; the paper simulates
	// 1B-instruction SimPoint phases, far beyond a test budget).
	Instructions int
	// Seed selects the workload instance (default 1).
	Seed uint64
	// Benchmarks restricts the run (default: all 38).
	Benchmarks []string
	// Engine, if set, runs the experiment's simulations through the
	// given campaign engine instead of the process-wide shared one.
	// Drivers sharing an engine share its result cache: configurations
	// and benchmarks common to several figures simulate once, and
	// re-running a driver costs only cache lookups.
	Engine *engine.Engine
}

// sharedEngine is the process-wide default engine backing all experiment
// drivers that don't bring their own.
var (
	sharedEngine     *engine.Engine
	sharedEngineOnce sync.Once
)

// defaultEngine returns the lazily created process-wide engine, which
// runs GOMAXPROCS simulations at once. The cache is bounded so a
// long-lived process sweeping many distinct points doesn't grow without
// limit; 1<<14 entries covers ~30 full-suite figure drivers before
// anything is evicted.
func defaultEngine() *engine.Engine {
	sharedEngineOnce.Do(func() {
		sharedEngine = engine.New(engine.Options{MaxCacheEntries: 1 << 14})
	})
	return sharedEngine
}

// normalize applies defaults.
func (o Options) normalize() Options {
	if o.Instructions <= 0 {
		o.Instructions = engine.DefaultInstructions
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = trace.AllBenchmarks()
	}
	return o
}

// Grid holds simulation results for a set of configurations crossed with a
// set of benchmarks.
type Grid struct {
	Configs    []string
	Benchmarks []string
	// Results[config][benchmark]
	Results map[string]map[string]cpu.Result
}

// ratio returns the geometric mean over the grid's benchmarks of cfg's
// metric relative to ref's.
func (g *Grid) ratio(cfg, ref string, metric func(cpu.Result) float64) float64 {
	return geoOver(g.Benchmarks, func(b string) float64 {
		return metric(g.Results[cfg][b]) / metric(g.Results[ref][b])
	})
}

// Metrics for Grid.ratio.
func cycles(r cpu.Result) float64        { return float64(r.Cycles) }
func totalEnergy(r cpu.Result) float64   { return r.Energy.Total() }
func dynamicEnergy(r cpu.Result) float64 { return r.Energy.TotalDynamic() }

// coverage returns cfg's way-determination coverage pooled over the
// grid's benchmarks, or zero when no access was classified.
func (g *Grid) coverage(cfg string) float64 {
	var known, total float64
	for _, b := range g.Benchmarks {
		r := g.Results[cfg][b]
		known += float64(r.CoverageKnown)
		total += float64(r.CoverageTotal)
	}
	if total == 0 {
		return 0
	}
	return known / total
}

// mergedShare returns the share of cfg's loads, pooled over the grid's
// benchmarks, that MALEC serviced by merging.
func (g *Grid) mergedShare(cfg string) float64 {
	var merged, loads float64
	for _, b := range g.Benchmarks {
		r := g.Results[cfg][b]
		merged += float64(r.Counters.Get(stats.CtrMalecMergedLoads))
		loads += float64(r.Loads)
	}
	return merged / loads
}

// runGrid simulates every (config, benchmark) pair through the campaign
// engine: jobs run in parallel under the engine's scheduler, identical
// points across drivers are simulated once, and result collection is
// lock-free (each campaign job writes its own slot).
func runGrid(cfgs []config.Config, opt Options) *Grid {
	opt = opt.normalize()
	eng := opt.Engine
	if eng == nil {
		eng = defaultEngine()
	}
	camp, err := eng.RunCampaign(engine.CampaignSpec{
		Configs:      cfgs,
		Benchmarks:   opt.Benchmarks,
		Instructions: opt.Instructions,
		Seeds:        []uint64{opt.Seed},
	})
	if err != nil {
		// Experiment drivers, like cpu.RunBenchmark, treat invalid
		// inputs as programmer error.
		panic("experiments: " + err.Error())
	}

	g := &Grid{Results: make(map[string]map[string]cpu.Result)}
	for _, c := range cfgs {
		g.Configs = append(g.Configs, c.Name)
		g.Results[c.Name] = make(map[string]cpu.Result)
	}
	g.Benchmarks = append(g.Benchmarks, opt.Benchmarks...)
	for i := range camp.Results {
		r := &camp.Results[i]
		g.Results[r.ConfigName][r.Benchmark] = r.Result
	}
	return g
}

// suiteOf returns the suite of a benchmark.
func suiteOf(bench string) string {
	if p, ok := trace.Profiles[bench]; ok {
		return p.Suite
	}
	return "unknown"
}

// bySuite groups benchmark names by suite, preserving order, returning only
// suites that are present.
func bySuite(benchmarks []string) (suites []string, groups map[string][]string) {
	groups = make(map[string][]string)
	for _, b := range benchmarks {
		s := suiteOf(b)
		if _, ok := groups[s]; !ok {
			suites = append(suites, s)
		}
		groups[s] = append(groups[s], b)
	}
	// Keep the paper's suite order where possible.
	order := map[string]int{trace.SuiteSpecInt: 0, trace.SuiteSpecFP: 1, trace.SuiteMB2: 2}
	sort.SliceStable(suites, func(i, j int) bool { return order[suites[i]] < order[suites[j]] })
	return suites, groups
}

// geoOver computes the geometric mean of f over the given benchmarks.
func geoOver(benchmarks []string, f func(bench string) float64) float64 {
	xs := make([]float64, 0, len(benchmarks))
	for _, b := range benchmarks {
		xs = append(xs, f(b))
	}
	return stats.GeoMean(xs)
}

// markdownTable renders a simple markdown table.
func markdownTable(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(header, " | ") + " |\n")
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f", 100*x) }
