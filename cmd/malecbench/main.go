// Command malecbench regenerates every table and figure of the paper's
// evaluation and prints them as markdown.
//
// Usage:
//
//	malecbench                    # everything, default scale
//	malecbench -exp fig4 -n 500000
//	malecbench -exp fig1,motivation
//	malecbench -bench gzip,mcf    # restrict the benchmark set
//	malecbench -sampled-compare -n 10000000 -sample-max-err 1
//	malecbench -exp fig4 -cpuprofile cpu.pb.gz -memprofile heap.pb.gz
//
// -sampled-compare runs each L1 interface variant exactly and sampled on
// one workload and prints the estimation error and speedup as JSON; it
// exits nonzero when an error exceeds -sample-max-err. Simulator
// throughput is measured by the perfbench module (perfbench/README.md).
// Besides the paper's 38 workloads, -bench accepts the stall-heavy stress
// profiles (ptrchase, brstorm, tlbthrash).
//
// -cpuprofile and -memprofile write standard pprof profiles of the whole
// invocation (any mode), so perf work can attach evidence without ad-hoc
// patching: `go tool pprof malecbench cpu.pb.gz`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/experiments"
	"malec/internal/trace"
)

// samplingInfo summarizes a sampled run's estimate quality in JSON output.
type samplingInfo struct {
	Windows          int      `json:"windows"`
	Warmup           int      `json:"warmup"`
	Detail           int      `json:"detail"`
	Interval         int      `json:"interval"`
	CPIRelCI         *float64 `json:"cpi_rel_ci95,omitempty"` // nil with fewer than two windows: unknown
	EnergyRelCI      *float64 `json:"energy_rel_ci95,omitempty"`
	CheckpointHits   int      `json:"checkpoint_hits"`
	CheckpointMisses int      `json:"checkpoint_misses"`
}

func samplingInfoOf(s *cpu.SamplingEstimate) *samplingInfo {
	if s == nil {
		return nil
	}
	return &samplingInfo{
		Windows: s.Windows, Warmup: s.Warmup, Detail: s.Detail, Interval: s.Interval,
		CPIRelCI: s.CPIRelHalfWidth, EnergyRelCI: s.EnergyRelHalfWidth,
		CheckpointHits: s.CheckpointHits, CheckpointMisses: s.CheckpointMisses,
	}
}

// mapCheckpoints is a process-local checkpoint store for the compare mode:
// the cold sampled run saves into it, the warm run restores from it — the
// campaign steady state (every core-side config variant after the first)
// measured in isolation.
type mapCheckpoints map[uint64]*cpu.Checkpoint

func (m mapCheckpoints) Load(n uint64) (*cpu.Checkpoint, bool) { ck, ok := m[n]; return ck, ok }
func (m mapCheckpoints) Save(n uint64, ck *cpu.Checkpoint)     { m[n] = ck }

// sampledCompareRow is one configuration's exact-vs-sampled differential.
type sampledCompareRow struct {
	Config             string  `json:"config"`
	ExactCycles        uint64  `json:"exact_cycles"`
	SampledCycles      uint64  `json:"sampled_cycles"`
	CycleErrPct        float64 `json:"cycle_err_pct"`
	EnergyErrPct       float64 `json:"energy_err_pct"`
	ExactSeconds       float64 `json:"exact_seconds"`
	SampledSeconds     float64 `json:"sampled_seconds"`
	Speedup            float64 `json:"speedup"`
	ExactInstrPerSec   float64 `json:"exact_instr_per_sec"`
	SampledInstrPerSec float64 `json:"sampled_instr_per_sec"`
	// Warm* measure a second sampled run that restores the warmed
	// checkpoints the first one saved — the per-run cost of every
	// subsequent core-side config variant in a campaign.
	WarmSeconds     float64       `json:"warm_seconds"`
	WarmSpeedup     float64       `json:"warm_speedup"`
	WarmInstrPerSec float64       `json:"warm_instr_per_sec"`
	WarmHits        int           `json:"warm_checkpoint_hits"`
	Sampling        *samplingInfo `json:"sampling"`
}

// sampledCompareReport is the JSON document -sampled-compare prints.
type sampledCompareReport struct {
	Mode         string              `json:"mode"`
	Benchmark    string              `json:"benchmark"`
	Instructions int                 `json:"instructions_per_run"`
	Seed         uint64              `json:"seed"`
	MaxErrPct    float64             `json:"max_err_pct"`
	Configs      []sampledCompareRow `json:"configs"`
	WallSeconds  float64             `json:"wall_seconds"`
}

// runSampledCompare runs each interface variant exactly and sampled on the
// same workload and reports the estimation error and speedup. ok is false
// when any cycle or energy error exceeds maxErrPct — the CI smoke's pass
// criterion.
func runSampledCompare(benchmark string, instructions int, seed uint64, sch config.Sampling, maxErrPct float64) (sampledCompareReport, bool) {
	rep := sampledCompareReport{
		Mode:         "sampled_compare",
		Benchmark:    benchmark,
		Instructions: instructions,
		Seed:         seed,
		MaxErrPct:    maxErrPct,
	}
	t0 := time.Now()
	ok := true
	cfgs := []config.Config{config.Base1ldst(), config.Base2ld1st(), config.MALEC(),
		config.MALECWithWDU(16)}
	for _, cfg := range cfgs {
		te := time.Now()
		exact := cpu.RunBenchmark(cfg, benchmark, instructions, seed)
		exactDur := time.Since(te)

		scfg := cfg
		scfg.Sampling = &sch
		ckpts := mapCheckpoints{}
		prof := trace.Profiles[benchmark]
		ts := time.Now()
		sampled := cpu.RunWithCheckpoints(scfg, benchmark,
			&cpu.GenSource{Gen: trace.NewGenerator(prof, seed), N: instructions}, ckpts)
		sampledDur := time.Since(ts)

		tw := time.Now()
		warm := cpu.RunWithCheckpoints(scfg, benchmark,
			&cpu.GenSource{Gen: trace.NewGenerator(prof, seed), N: instructions}, ckpts)
		warmDur := time.Since(tw)

		cycleErr := 100 * (float64(sampled.Cycles) - float64(exact.Cycles)) / float64(exact.Cycles)
		energyErr := 100 * (sampled.Energy.Total() - exact.Energy.Total()) / exact.Energy.Total()
		row := sampledCompareRow{
			Config:             cfg.Name,
			ExactCycles:        exact.Cycles,
			SampledCycles:      sampled.Cycles,
			CycleErrPct:        cycleErr,
			EnergyErrPct:       energyErr,
			ExactSeconds:       exactDur.Seconds(),
			SampledSeconds:     sampledDur.Seconds(),
			Speedup:            exactDur.Seconds() / sampledDur.Seconds(),
			ExactInstrPerSec:   float64(exact.Instructions) / exactDur.Seconds(),
			SampledInstrPerSec: float64(sampled.Instructions) / sampledDur.Seconds(),
			WarmSeconds:        warmDur.Seconds(),
			WarmSpeedup:        exactDur.Seconds() / warmDur.Seconds(),
			WarmInstrPerSec:    float64(warm.Instructions) / warmDur.Seconds(),
			Sampling:           samplingInfoOf(sampled.Sampling),
		}
		if warm.Sampling != nil {
			row.WarmHits = warm.Sampling.CheckpointHits
		}
		if warm.Cycles != sampled.Cycles || warm.Instructions != sampled.Instructions {
			fmt.Fprintf(os.Stderr, "malecbench: %s checkpoint-warm run diverged: cycles %d vs %d, instructions %d vs %d\n",
				cfg.Name, warm.Cycles, sampled.Cycles, warm.Instructions, sampled.Instructions)
			ok = false
		}
		if row.WarmHits == 0 {
			fmt.Fprintf(os.Stderr, "malecbench: %s warm run restored no checkpoints\n", cfg.Name)
			ok = false
		}
		if row.Sampling == nil {
			fmt.Fprintf(os.Stderr, "malecbench: %s did not take the sampled path (n=%d < interval=%d?)\n",
				cfg.Name, instructions, sch.Interval)
			ok = false
		}
		if abs(cycleErr) > maxErrPct || abs(energyErr) > maxErrPct {
			fmt.Fprintf(os.Stderr, "malecbench: %s sampling error out of bounds: cycles %+.3f%%, energy %+.3f%% (limit %.3f%%)\n",
				cfg.Name, cycleErr, energyErr, maxErrPct)
			ok = false
		}
		rep.Configs = append(rep.Configs, row)
	}
	rep.WallSeconds = time.Since(t0).Seconds()
	return rep, ok
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func main() { os.Exit(run()) }

// run is main's body with an exit code return instead of os.Exit calls, so
// the deferred profile writers (pprof.StopCPUProfile, the heap snapshot)
// always flush before the process exits, whatever path ends the run.
func run() (code int) {
	var (
		exps       = flag.String("exp", "all", "comma-separated experiments: tab1,tab2,motivation,fig1,fig4,wdu,coverage,merge,wayconstraint,latency,buses,comparelimit,mergewindow,segmented,bypass")
		n          = flag.Int("n", 300000, "instructions per benchmark")
		seed       = flag.Uint64("seed", 1, "workload seed")
		bench      = flag.String("bench", "", "comma-separated benchmark subset (default all)")
		cacheDir   = flag.String("cache-dir", "", "persist/reuse simulation results in this directory")
		workers    = flag.Int("workers", 0, "max concurrent simulations (default GOMAXPROCS)")
		quiet      = flag.Bool("quiet", false, "suppress progress notes on stderr")
		sampledCmp = flag.Bool("sampled-compare", false, "run each variant exactly and sampled, print the differential as JSON; exit nonzero past -sample-max-err")
		sampleWarm = flag.Int("sample-warmup", config.DefaultSampling().Warmup, "detailed-warmup instructions per measurement window")
		sampleDet  = flag.Int("sample-detail", config.DefaultSampling().Detail, "measured instructions per window")
		sampleInt  = flag.Int("sample-interval", config.DefaultSampling().Interval, "instructions per sampling interval (one window each)")
		sampleErr  = flag.Float64("sample-max-err", 5, "max |cycle or energy error| percent for -sampled-compare to pass")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile taken at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "malecbench: -cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "malecbench: -cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "malecbench: -memprofile:", err)
				code = 1
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "malecbench: -memprofile:", err)
				code = 1
			}
		}()
	}

	if *sampledCmp {
		sch := config.Sampling{Warmup: *sampleWarm, Detail: *sampleDet, Interval: *sampleInt}
		if !sch.Valid() {
			fmt.Fprintf(os.Stderr, "malecbench: invalid sampling schedule %+v\n", sch)
			return 2
		}
		benchmark := "gzip"
		if *bench != "" {
			benchmark = strings.Split(*bench, ",")[0]
		}
		rep, ok := runSampledCompare(benchmark, *n, *seed, sch, *sampleErr)
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "malecbench:", err)
			return 1
		}
		fmt.Println(string(out))
		if !ok {
			return 1
		}
		return 0
	}

	// All experiments share one engine, so simulation points common to
	// several figures (every driver includes MALEC and the baselines) run
	// once, and with -cache-dir repeat invocations are disk hits.
	eng := engine.New(engine.Options{Workers: *workers, CacheDir: *cacheDir})
	opt := experiments.Options{Instructions: *n, Seed: *seed, Engine: eng}
	if *bench != "" {
		opt.Benchmarks = strings.Split(*bench, ",")
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	runExp := func(name string, f func() string) {
		if !all && !want[name] {
			return
		}
		t0 := time.Now()
		out := f()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(t0).Round(time.Millisecond))
		}
		fmt.Println(out)
	}

	runExp("tab1", experiments.Table1)
	runExp("tab2", experiments.Table2)
	runExp("motivation", func() string { return experiments.Motivation(opt).Table() })
	runExp("fig1", func() string { return experiments.Fig1(opt).Table() })
	runExp("fig4", func() string {
		r := experiments.Fig4(opt)
		return r.TimeTable() + "\n" + r.EnergyTable()
	})
	runExp("wdu", func() string { return experiments.WDUComparison(opt).Table() })
	runExp("coverage", func() string { return experiments.CoverageAblation(opt).Table() })
	runExp("merge", func() string { return experiments.MergeContribution(opt).Table() })
	runExp("wayconstraint", func() string { return experiments.WayConstraint(opt).Table() })
	runExp("latency", func() string { return experiments.LatencySensitivity(opt).Table() })
	runExp("buses", func() string { return experiments.ResultBusSweep(opt).Table() })
	runExp("comparelimit", func() string { return experiments.CompareLimitAblation(opt).Table() })
	runExp("mergewindow", func() string { return experiments.MergeWindowAblation(opt).Table() })
	runExp("segmented", func() string { return experiments.SegmentedWT(opt).Table() })
	runExp("bypass", func() string { return experiments.Bypass(opt).Table() })

	if !*quiet {
		s := eng.Stats()
		fmt.Fprintf(os.Stderr, "[engine: %d simulations, %d memory hits, %d disk hits, %d deduplicated]\n",
			s.Simulations, s.Hits, s.DiskHits, s.Dedup)
		fmt.Fprintf(os.Stderr, "[trace cache: %d hits, %d misses, %d records resident]\n",
			s.TraceHits, s.TraceMisses, s.TraceRecords)
	}
	return 0
}
