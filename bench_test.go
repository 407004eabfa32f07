// Benchmarks regenerating every table and figure of the paper's evaluation
// (see EXPERIMENTS.md for the measured-vs-paper comparison at full scale).
// Each benchmark runs its experiment at a reduced instruction budget so the
// suite completes quickly; the cmd/malecbench tool runs them at full scale.
//
// The figure benchmarks hand every iteration a fresh engine: the experiment
// drivers otherwise share a process-wide result cache, and iterations after
// the first would measure cache lookups instead of simulation. All
// benchmarks report allocations; the per-interface Sim benchmarks and
// BenchmarkFig4a additionally report committed instructions per second
// (instr/s); EXPERIMENTS.md records these numbers across hot-path
// changes.
package malec

import (
	"testing"
)

// benchOpt is the reduced-scale option set used by the benchmarks. The
// fresh per-call engine isolates iterations from the shared result cache.
func benchOpt(benchmarks ...string) Options {
	return Options{
		Instructions: benchInstructions,
		Seed:         1,
		Benchmarks:   benchmarks,
		Engine:       NewEngine(EngineOptions{}),
	}
}

const benchInstructions = 30000

// fig4Subset is a representative cross-suite subset.
var fig4Subset = []string{"gzip", "mcf", "gap", "swim", "djpeg", "h263enc"}

// reportInstrPerSec attaches the committed-instructions-per-second custom
// metric, given the number of instructions simulated per benchmark
// iteration.
func reportInstrPerSec(b *testing.B, perOp uint64) {
	if b.Elapsed() <= 0 {
		return
	}
	total := float64(perOp) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkFig1 regenerates Fig. 1 (consecutive same-page loads).
func BenchmarkFig1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fig1(benchOpt(fig4Subset...))
	}
}

// BenchmarkMotivation regenerates the Sec. III scalars.
func BenchmarkMotivation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Motivation(benchOpt(fig4Subset...))
	}
}

// BenchmarkFig4a regenerates Fig. 4a (normalized execution time; the same
// grid also yields Fig. 4b, measured separately below). Each iteration
// simulates the full five-configuration grid over fig4Subset.
func BenchmarkFig4a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Fig4(benchOpt(fig4Subset...))
		_ = r.TimeTable()
	}
	perOp := uint64(benchInstructions) * uint64(len(fig4Subset)) * uint64(len(Fig4Configs()))
	reportInstrPerSec(b, perOp)
}

// BenchmarkFig4b regenerates Fig. 4b (normalized dynamic+leakage energy).
func BenchmarkFig4b(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Fig4(benchOpt(fig4Subset...))
		_ = r.EnergyTable()
	}
}

// BenchmarkWDU regenerates the Sec. VI-C WT vs WDU-8/16/32 comparison.
func BenchmarkWDU(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WDUComparison(benchOpt("gzip", "gap", "djpeg"))
	}
}

// BenchmarkCoverage regenerates the Sec. V feedback-update ablation.
func BenchmarkCoverage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CoverageAblation(benchOpt("gzip", "gap", "djpeg"))
	}
}

// BenchmarkMerge regenerates the Sec. VI-B merge-contribution analysis.
func BenchmarkMerge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MergeContribution(benchOpt("gap", "equake", "mgrid"))
	}
}

// BenchmarkWayConstraint regenerates the Sec. V 3-of-4 way allocation
// check.
func BenchmarkWayConstraint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WayConstraint(benchOpt("gzip", "djpeg"))
	}
}

// Single-configuration microbenchmarks: simulation throughput of each L1
// interface model on one workload, with allocations reported. These are
// the purest view of the inner-loop hot path (no engine, no parallelism).

func benchmarkConfig(b *testing.B, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Run(cfg, "gzip", benchInstructions, 1)
		if r.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
	reportInstrPerSec(b, benchInstructions)
}

// BenchmarkSimBase1 measures Base1ldst simulation throughput.
func BenchmarkSimBase1(b *testing.B) { benchmarkConfig(b, Base1ldst()) }

// BenchmarkSimBase2 measures Base2ld1st simulation throughput.
func BenchmarkSimBase2(b *testing.B) { benchmarkConfig(b, Base2ld1st()) }

// BenchmarkSimMALEC measures MALEC simulation throughput.
func BenchmarkSimMALEC(b *testing.B) { benchmarkConfig(b, MALEC()) }

// BenchmarkSimMALECWDU measures MALEC-with-WDU simulation throughput (the
// WDU exercises a different way-determination bookkeeping path).
func BenchmarkSimMALECWDU(b *testing.B) { benchmarkConfig(b, MALECWithWDU(16)) }

// Stall-heavy stress benchmarks: stall-dominated workloads (pointer
// chasing, mispredict storms, TLB thrashing) spend most simulated cycles
// with nothing in flight making progress, which is exactly what the
// event-driven cycle skip fast-forwards. These keep the skip win — and any
// future regression of it — visible; EXPERIMENTS.md ("Cycle skipping")
// records the skip rate measured for each.
func benchmarkStress(b *testing.B, benchmark string) {
	b.ReportAllocs()
	var last Result
	for i := 0; i < b.N; i++ {
		last = Run(MALEC(), benchmark, benchInstructions, 1)
		if last.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
	reportInstrPerSec(b, benchInstructions)
	b.ReportMetric(last.SkipRate(), "skiprate")
}

// BenchmarkSimStressPtrchase measures throughput on serialized pointer
// chasing over a 64 MByte working set (MSHR-chained DRAM misses).
func BenchmarkSimStressPtrchase(b *testing.B) { benchmarkStress(b, "ptrchase") }

// BenchmarkSimStressBrstorm measures throughput under a mispredict storm
// (front end mostly resolving redirects and refilling).
func BenchmarkSimStressBrstorm(b *testing.B) { benchmarkStress(b, "brstorm") }

// BenchmarkSimStressTLBThrash measures throughput under TLB thrashing
// (page-table walks on most references).
func BenchmarkSimStressTLBThrash(b *testing.B) { benchmarkStress(b, "tlbthrash") }

// BenchmarkSimSampled measures the sampled fast path end to end (functional
// warming + shadow measurement bursts, no checkpoint reuse) on a schedule
// scaled to the benchmark budget. The instr/s metric is the cold sampled
// throughput; warm (checkpoint-restoring) throughput is measured by
// malecbench -sampled-compare.
func BenchmarkSimSampled(b *testing.B) {
	const n = 100000
	cfg := MALEC()
	cfg.Sampling = &Sampling{Warmup: 200, Detail: 800, Interval: 20000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Run(cfg, "gzip", n, 1)
		if r.Sampling == nil {
			b.Fatal("sampled path did not engage")
		}
	}
	reportInstrPerSec(b, n)
}

// BenchmarkSimSampledLong measures one long cold sampled point: 10M
// instructions of gzip on MALEC with DefaultSampling (ten windows), run
// through Run, which reads the trace from a generate-ahead GenSource, so
// trace generation overlaps functional warming and no trace is held.
func BenchmarkSimSampledLong(b *testing.B) {
	const n = 10_000_000
	cfg := MALEC()
	cfg.Sampling = DefaultSampling()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := Run(cfg, "gzip", n, 1); r.Sampling == nil {
			b.Fatal("sampled path did not engage")
		}
	}
	reportInstrPerSec(b, n)
}

// BenchmarkTraceGeneration measures synthetic workload generation.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Generate("gzip", benchInstructions, uint64(i+1))
	}
}
