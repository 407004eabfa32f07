// Command malecsim runs one configuration against one benchmark (or a
// trace file) and prints detailed performance and energy statistics.
//
// Usage:
//
//	malecsim -config MALEC -bench gzip -n 1000000
//	malecsim -config Base2ld1st -trace trace.mltr
//	malecsim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/trace"
)

func main() {
	var (
		cfgName   = flag.String("config", "MALEC", "configuration name (see -list)")
		bench     = flag.String("bench", "gzip", "benchmark profile name")
		traceFile = flag.String("trace", "", "run a recorded trace instead of a synthetic benchmark")
		n         = flag.Int("n", 500000, "instructions to simulate")
		seed      = flag.Uint64("seed", 1, "workload seed")
		cacheDir  = flag.String("cache-dir", "", "persist/reuse results in this directory (repeat runs become cache hits)")
		list      = flag.Bool("list", false, "list configurations and benchmarks")
		counters  = flag.Bool("counters", false, "dump raw event counters")
	)
	flag.Parse()

	if *list {
		printLists()
		return
	}
	// Note: -seed selects the workload instance only; cfg.Seed (the
	// microarchitectural RNG seed) stays at its preset value so that
	// malecsim, malecbench and malecd produce identical results and
	// cache keys for identically named simulation points.
	cfg, ok := config.Named(*cfgName)
	if !ok {
		fmt.Fprintf(os.Stderr, "malecsim: unknown config %q (try -list)\n", *cfgName)
		os.Exit(2)
	}

	var res cpu.Result
	if *traceFile != "" {
		recs, err := readTrace(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "malecsim: %v\n", err)
			os.Exit(1)
		}
		// Trace runs have no workload generator for -seed to select, so
		// here it varies the microarchitectural RNG instead. This path
		// never touches the engine cache, so cfg.Seed can't split keys.
		cfg.Seed = *seed
		if *cacheDir != "" {
			fmt.Fprintln(os.Stderr, "malecsim: -cache-dir has no effect on trace runs (results are not cached)")
		}
		res = cpu.Run(cfg, *traceFile, &cpu.SliceSource{Records: recs})
	} else {
		if _, ok := trace.Profiles[*bench]; !ok {
			fmt.Fprintf(os.Stderr, "malecsim: unknown benchmark %q (try -list)\n", *bench)
			os.Exit(2)
		}
		eng := engine.New(engine.Options{CacheDir: *cacheDir})
		r, src, err := eng.RunContext(context.Background(), cfg, *bench, *n, *seed)
		if err != nil { // a simulation panic, as *engine.SimPanicError
			fmt.Fprintf(os.Stderr, "malecsim: %v\n", err)
			os.Exit(1)
		}
		if src != engine.SourceSimulated {
			fmt.Fprintf(os.Stderr, "[result served from %s cache]\n", src)
		}
		res = r
	}
	printResult(res, *counters)
}

// readTrace loads all records from a trace file.
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	recs, err := r.ReadAll()
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return recs, nil
}

// printResult renders a Result.
func printResult(r cpu.Result, counters bool) {
	fmt.Printf("config      %s\n", r.Config)
	fmt.Printf("benchmark   %s\n", r.Benchmark)
	fmt.Printf("instrs      %d (loads %d, stores %d)\n", r.Instructions, r.Loads, r.Stores)
	fmt.Printf("cycles      %d\n", r.Cycles)
	fmt.Printf("IPC         %.3f\n", r.IPC())
	fmt.Printf("L1          %.2f%% miss (%d hits, %d misses), %d fills, %d writebacks\n",
		100*r.L1.MissRate(), r.L1.Hits, r.L1.Misses, r.L1.Fills, r.L1.Writebacks)
	fmt.Printf("L1 modes    %d conventional, %d reduced reads\n",
		r.L1.ConventionalReads, r.L1.ReducedReads)
	fmt.Printf("uTLB        %d lookups, %.2f%% miss\n", r.UTLB.Lookups, missPct(r.UTLB))
	fmt.Printf("TLB         %d lookups, %.2f%% miss\n", r.TLB.Lookups, missPct(r.TLB))
	if r.CoverageTotal > 0 {
		fmt.Printf("way-det     %.1f%% coverage (%d/%d)\n",
			100*r.Coverage(), r.CoverageKnown, r.CoverageTotal)
	}
	fmt.Printf("energy:\n%s", r.Energy.String())
	if counters {
		fmt.Println("counters:")
		names := r.Counters.Names()
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-36s %12d\n", n, r.Counters.GetName(n))
		}
	}
}

func missPct(s interface{ MissRate() float64 }) float64 { return 100 * s.MissRate() }

// printLists shows available configurations and benchmarks.
func printLists() {
	fmt.Println("configurations:")
	for _, n := range config.Names() {
		fmt.Println("  " + n)
	}
	fmt.Println("benchmarks:")
	for _, suite := range trace.Suites {
		fmt.Printf("  [%s]\n", suite)
		for _, b := range trace.Benchmarks[suite] {
			fmt.Println("    " + b)
		}
	}
}
