// Package malec is a simulation library reproducing "MALEC: A Multiple
// Access Low Energy Cache" (Boettcher, Gabrielli, Al-Hashimi, Kershaw —
// DATE 2013).
//
// MALEC is an L1 data cache interface for out-of-order superscalar
// processors. It exploits the observation that consecutive memory
// references tend to access the same page: by restricting the interface to
// one page per cycle it keeps every structure single-ported (uTLB, TLB,
// cache banks), shares each address translation among all grouped
// references, merges loads to the same cache line, and uses Page-Based Way
// Determination — way tables coupled to the TLBs — to bypass tag arrays on
// the majority of accesses.
//
// The package exposes:
//
//   - machine configurations matching the paper's Tab. I/II (Base1ldst,
//     Base2ld1st, MALEC, and their latency/WDU/ablation variants);
//   - 38 synthetic benchmark workloads standing in for the paper's SPEC
//     CPU2000 and MediaBench2 SimPoint phases;
//   - a cycle-level out-of-order core + memory hierarchy simulator;
//   - an analytical CACTI-substitute energy model;
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation;
//   - a campaign engine (NewEngine) with a content-addressed result
//     cache, singleflight deduplication of concurrent identical runs,
//     bounded-worker scheduling, optional disk persistence, a shared
//     materialized-trace cache (each workload is generated once per
//     campaign and its record arena shared across every configuration),
//     and config x benchmark x seed sweep campaigns with JSON/CSV
//     export — the layer the experiment drivers and the malecd HTTP
//     service (cmd/malecd) run on.
//
// Quick start:
//
//	base := malec.Run(malec.Base1ldst(), "gzip", 500000, 1)
//	prop := malec.Run(malec.MALEC(), "gzip", 500000, 1)
//	speedup := float64(base.Cycles) / float64(prop.Cycles)
//	saving := 1 - prop.Energy.Total()/base.Energy.Total()
//
// Cached, deduplicated, parallel simulation through the engine:
//
//	eng := malec.NewEngine(malec.EngineOptions{Workers: 8})
//	camp, err := eng.RunCampaign(malec.CampaignSpec{
//		Configs:    malec.Fig4Configs(),
//		Benchmarks: []string{"gzip", "mcf"},
//		Seeds:      []uint64{1, 2, 3},
//	})
//	csv, _ := camp.CSV() // deterministic across worker counts
package malec

import (
	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/energy"
	"malec/internal/engine"
	"malec/internal/experiments"
	"malec/internal/stats"
	"malec/internal/trace"
)

// Config describes a simulated machine: the L1 interface microarchitecture
// (Tab. I) plus the core and memory hierarchy parameters (Tab. II).
type Config = config.Config

// Result carries the performance, activity and energy statistics of one
// simulation run.
type Result = cpu.Result

// Counters is the typed event-counter set attached to every Result.
type Counters = stats.Counters

// Counter is a typed event-counter ID. Each maps to a canonical dotted
// name (Counter.Name, CounterByName) used by the JSON encoding and the
// name-keyed accessors; CounterNames lists them all.
type Counter = stats.Counter

// CounterByName resolves a canonical counter name (e.g. "l1.fills") to its
// typed ID.
func CounterByName(name string) (Counter, bool) { return stats.CounterByName(name) }

// CounterNames returns the canonical names of all defined counters in ID
// order.
func CounterNames() []string { return stats.CounterNames() }

// EnergyBreakdown is the per-component dynamic/leakage energy report of a
// Result (picojoules), indexable by EnergyComponent.
type EnergyBreakdown = energy.Breakdown

// EnergyComponent identifies one accounting bucket of the energy breakdown
// (L1, uTLB, TLB, uWT, WT, WDU).
type EnergyComponent = energy.Component

// EnergyComponents returns every energy accounting bucket in reporting
// order, for iterating a Breakdown's Dynamic/Leakage arrays.
func EnergyComponents() []EnergyComponent { return energy.Components() }

// Record is one dynamic trace instruction.
type Record = trace.Record

// Profile parameterizes the synthetic workload generator.
type Profile = trace.Profile

// Options scales the experiment drivers (instructions per benchmark, seed,
// benchmark subset, parallelism).
type Options = experiments.Options

// Sampling is the (warmup, detail, interval) schedule of the SMARTS-style
// sampled fast path; assign one to Config.Sampling to switch a run from
// exact cycle-accurate simulation to interval sampling with extrapolated
// cycles/energy and confidence intervals (Result.Sampling). Leaving
// Config.Sampling nil runs the exact path.
type Sampling = config.Sampling

// SamplingEstimate reports a sampled run's schedule, per-metric 95%
// confidence intervals and warming counts, via Result.Sampling.
type SamplingEstimate = cpu.SamplingEstimate

// DefaultSampling returns the default sampled-run schedule (2k warmup + 8k
// detail per 1M-instruction interval, i.e. 1% detail).
func DefaultSampling() *Sampling { return config.DefaultSampling() }

// Configuration presets (paper Tab. I and Sec. VI variants).
var (
	// Base1ldst is the energy-oriented baseline: one load or store per
	// cycle, single-ported structures.
	Base1ldst = config.Base1ldst
	// Base2ld1st is the performance-oriented baseline: two loads plus one
	// store per cycle via physical multi-porting on top of banking.
	Base2ld1st = config.Base2ld1st
	// Base2ld1st1cycleL1 is Base2ld1st with a 1-cycle L1.
	Base2ld1st1cycleL1 = config.Base2ld1st1cycleL1
	// MALEC is the proposed interface as evaluated in the paper.
	MALEC = config.MALEC
	// MALEC3cycleL1 is MALEC with a 3-cycle L1.
	MALEC3cycleL1 = config.MALEC3cycleL1
	// MALECWithWDU substitutes an n-entry Way Determination Unit for the
	// way tables (Sec. VI-C comparison).
	MALECWithWDU = config.MALECWithWDU
	// MALECNoMerge disables load merging (Sec. VI-B ablation).
	MALECNoMerge = config.MALECNoMerge
	// MALECNoFeedback disables the last-entry register update (Sec. V
	// coverage ablation).
	MALECNoFeedback = config.MALECNoFeedback
	// MALECNoWayDet disables way determination entirely.
	MALECNoWayDet = config.MALECNoWayDet
	// Fig4Configs returns the five configurations of Fig. 4 in order.
	Fig4Configs = config.Fig4Configs
)

// Engine is the simulation campaign engine: a content-addressed result
// cache plus a bounded-worker, deduplicating scheduler. See NewEngine.
type Engine = engine.Engine

// EngineOptions configures NewEngine (workers, disk cache directory,
// materialized-trace cache bound).
type EngineOptions = engine.Options

// EngineStats snapshots an engine's cache and scheduler counters.
type EngineStats = engine.Stats

// Key canonically identifies one simulation point (config digest,
// benchmark, instructions, seed).
type Key = engine.Key

// CampaignSpec describes a config x benchmark x seed simulation grid.
type CampaignSpec = engine.CampaignSpec

// Campaign holds campaign results in deterministic expansion order, with
// JSON and CSV exporters.
type Campaign = engine.Campaign

// Job is one expanded simulation point of a campaign, as passed to
// CampaignSpec.Progress callbacks.
type Job = engine.Job

// JobResult pairs a campaign job with its result and the source it was
// served from.
type JobResult = engine.JobResult

// Source reports where the engine served a result from: "memory", "disk",
// "inflight" or "simulated".
type Source = engine.Source

// NewEngine returns a campaign engine. Every simulation requested through
// it — directly, via RunCampaign, or by experiment drivers handed the
// engine in Options — is computed at most once per Key and served from
// cache afterwards.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// KeyFor derives the canonical cache key of a simulation point.
func KeyFor(cfg Config, benchmark string, instructions int, seed uint64) Key {
	return engine.KeyFor(cfg, benchmark, instructions, seed)
}

// NamedConfig resolves a preset configuration by its canonical name (the
// names malecsim and malecd accept, e.g. "MALEC", "Base2ld1st_1cycleL1").
func NamedConfig(name string) (Config, bool) { return config.Named(name) }

// ConfigNames returns the sorted canonical names of all preset
// configurations.
func ConfigNames() []string { return config.Names() }

// Run simulates the named benchmark workload on cfg for the given number of
// instructions. The same seed produces the identical workload across
// configurations, which cross-configuration comparisons rely on.
func Run(cfg Config, benchmark string, instructions int, seed uint64) Result {
	return cpu.RunBenchmark(cfg, benchmark, instructions, seed)
}

// RunTrace simulates an explicit record stream on cfg.
func RunTrace(cfg Config, name string, records []Record) Result {
	return cpu.Run(cfg, name, &cpu.SliceSource{Records: records})
}

// Benchmarks returns the names of all 38 synthetic benchmark workloads in
// suite order (SPEC-INT, SPEC-FP, MediaBench2).
func Benchmarks() []string { return trace.AllBenchmarks() }

// BenchmarksOf returns the benchmark names of one suite: "spec-int",
// "spec-fp" or "mb2".
func BenchmarksOf(suite string) []string { return trace.Benchmarks[suite] }

// StressBenchmarks returns the names of the stall-heavy stress workloads
// (pointer chasing, mispredict storm, TLB thrashing). They are runnable
// like any benchmark but excluded from Benchmarks, which lists only the
// paper's 38-workload reporting set.
func StressBenchmarks() []string {
	return append([]string(nil), trace.StressBenchmarks...)
}

// ProfileOf returns the generator profile of a named benchmark and whether
// it exists.
func ProfileOf(benchmark string) (Profile, bool) {
	p, ok := trace.Profiles[benchmark]
	return p, ok
}

// Generate produces n trace records for the named benchmark. It panics on
// unknown names (see Benchmarks).
func Generate(benchmark string, n int, seed uint64) []Record {
	p, ok := trace.Profiles[benchmark]
	if !ok {
		panic("malec: unknown benchmark " + benchmark)
	}
	return trace.NewGenerator(p, seed).Generate(n)
}

// GenerateProfile produces n trace records for a custom profile.
func GenerateProfile(p Profile, n int, seed uint64) []Record {
	return trace.NewGenerator(p, seed).Generate(n)
}

// Experiment drivers, one per paper table/figure. Each returns a result
// struct with a Table() string renderer.
var (
	// Fig1 reproduces Fig. 1 (page locality of consecutive loads).
	Fig1 = experiments.Fig1
	// Motivation reproduces the Sec. III scalars (40% memory references,
	// 2:1 load/store ratio, 70% page locality, 46% line locality).
	Motivation = experiments.Motivation
	// Fig4 reproduces Fig. 4a/4b (normalized execution time and energy of
	// the five configurations).
	Fig4 = experiments.Fig4
	// WDUComparison reproduces the Sec. VI-C WT vs WDU comparison.
	WDUComparison = experiments.WDUComparison
	// CoverageAblation reproduces the Sec. V feedback-update ablation
	// (94% vs 75% coverage).
	CoverageAblation = experiments.CoverageAblation
	// MergeContribution reproduces the Sec. VI-B merge analysis (~21% of
	// MALEC's speedup stems from load merging).
	MergeContribution = experiments.MergeContribution
	// WayConstraint checks the Sec. V 3-of-4 way allocation constraint.
	WayConstraint = experiments.WayConstraint
	// Table1 renders the paper's Tab. I.
	Table1 = experiments.Table1
	// Table2 renders the paper's Tab. II.
	Table2 = experiments.Table2
	// LatencySensitivity sweeps the L1 latency 1..4 cycles (Sec. VI-D).
	LatencySensitivity = experiments.LatencySensitivity
	// ResultBusSweep varies MALEC's result buses 1..4 (Sec. VI-D).
	ResultBusSweep = experiments.ResultBusSweep
	// CompareLimitAblation varies the arbitration comparator budget
	// (paper: 3 comparators cost <0.5% performance).
	CompareLimitAblation = experiments.CompareLimitAblation
	// MergeWindowAblation compares 16/32/64-byte merge granularities
	// (paper: the two-sub-block read doubles merge probability).
	MergeWindowAblation = experiments.MergeWindowAblation
	// SegmentedWT evaluates the Sec. VI-D segmented way-table extension.
	SegmentedWT = experiments.SegmentedWT
	// Bypass evaluates run-time cache bypassing for streaming pages
	// (Sec. VI-D extension).
	Bypass = experiments.Bypass
)

// MALECSegmentedWT configures the Sec. VI-D segmented way tables.
var MALECSegmentedWT = config.MALECSegmentedWT

// MALECBypass enables run-time cache bypassing on top of MALEC.
var MALECBypass = config.MALECBypass
