package cpu

// Sampled simulation (tentpole of the sampled+checkpointed-simulation PR):
// SMARTS-style interval sampling over the trace. The run is divided into
// fixed intervals; most of each interval is driven through functional
// warming (core.System.WarmLoad/WarmStore — full memory-side state
// machine, no cycle accounting), and a short detailed burst at the end of
// each interval is measured cycle-accurately on a throwaway machine. The
// per-window CPI and dynamic-energy-per-instruction samples extrapolate to
// whole-run cycles and energy, with 95% confidence intervals reported in
// Result.Sampling.
//
// Shadow-burst structure: the primary system is ONLY ever functionally
// warmed, so its trajectory is independent of both the core-side
// configuration and the sampling schedule. Each burst instead runs on a
// shadow interface restored to the state captured at burst start. One
// shadow serves every burst of a run: Restore empties the store/merge
// buffers, queues and counters a burst leaves mid-flight, so each burst
// starts from what a freshly built interface restored to that state would
// hold. The burst records are both warmed into the primary and replayed into the
// shadow, keeping the primary's trajectory identical to a run with no
// measurement at all — which is exactly the trajectory microarchitectural
// checkpoints capture and restore.

import (
	"context"
	"fmt"

	"malec/internal/config"
	"malec/internal/core"
	"malec/internal/energy"
	"malec/internal/stats"
	"malec/internal/trace"
)

// SourceState is an opaque snapshot of a Source's position, carried inside
// checkpoints so a restore can skip the fast-forwarded stretch of the
// trace instead of replaying it.
type SourceState struct {
	// Gen is the generator snapshot for GenSource-backed runs.
	Gen *trace.GeneratorState `json:",omitempty"`
	// Pos is the number of records consumed (both source kinds).
	Pos uint64
}

// statefulSource is implemented by sources whose position can be captured
// and restored; RestoreState reports false when the snapshot does not fit
// (e.g. a generator snapshot offered to a different source kind).
// position is the number of records consumed, CaptureState().Pos without
// the snapshot.
type statefulSource interface {
	CaptureState() SourceState
	RestoreState(SourceState) bool
	position() int
}

// Checkpoint is one warmed snapshot: the memory-side state at a trace
// index, the stream counts up to it, and (when the source supports it) the
// source position — everything needed to resume the functional-warming
// trajectory at that index without touching the records before it.
type Checkpoint struct {
	Sys *core.SystemState
	// Instructions/Loads/Stores count the records before the checkpoint.
	Instructions uint64
	Loads        uint64
	Stores       uint64
	// Src, when present, lets a restore skip record generation entirely.
	Src *SourceState `json:",omitempty"`
}

// at reports whether the checkpoint was taken at record index n: its
// instruction count, source position and generator index, when present,
// must all equal n. A checkpoint failing this is damaged, and restoring
// it would give wrong results or run the source dry; the run treats it as
// a miss, warms the gap and overwrites it.
func (ck *Checkpoint) at(n uint64) bool {
	if ck.Instructions != n {
		return false
	}
	if src := ck.Src; src != nil && (src.Pos != n || src.Gen != nil && src.Gen.Idx != n) {
		return false
	}
	return true
}

// Checkpoints is an optional store of warmed snapshots, keyed by the
// absolute trace-record index at which the snapshot was taken. The caller
// (the engine) curries the rest of the identity — memory-side config
// digest, benchmark, seed — so two core-side config variants over the same
// trace share entries. Load returns a snapshot that must not be mutated;
// Save takes ownership of an immutable snapshot.
type Checkpoints interface {
	Load(n uint64) (*Checkpoint, bool)
	Save(n uint64, ck *Checkpoint)
}

// runSampled executes the sampled fast path. total is the number of
// records the source will yield (>= one interval, checked by the caller).
// ctx, when non-nil, is polled once per window and before the tail warm;
// windows are bounded (one interval of warming plus a burst) and the tail
// is shorter than one, so cancellation lands within a window's worth of
// work.
func runSampled(ctx context.Context, cfg config.Config, benchmark string, src Source, total int, ck Checkpoints) (Result, error) {
	sch := cfg.Sampling
	warmup, detail, interval := sch.Warmup, sch.Detail, sch.Interval
	burst := warmup + detail
	gap := interval - burst
	nWin := total / interval

	// Checkpoint indexes are absolute trace positions; a source that has
	// already been partially consumed would alias them, so checkpointing is
	// only engaged for sources starting at the beginning of the trace.
	if ck != nil {
		if sf, ok := src.(statefulSource); !ok || sf.position() != 0 {
			ck = nil
		}
	}
	if gen, ok := src.(*GenSource); ok && ck == nil {
		// No checkpoint to stop at: generate the whole trace ahead.
		gen.allow(gen.N)
	}

	sys := core.NewSystem(cfg)
	sys.SetWarming(true)

	var (
		skippedCycles, skipJumps uint64
		hits, saves              int
		epiSum                   energy.Breakdown
		lastMeter                *energy.Meter
	)
	rd := reader{src: src}
	cpiSamples := make([]float64, 0, nWin)
	epiSamples := make([]float64, 0, nWin)
	buf := make([]trace.Record, burst)
	// Every burst replays buf on one shadow and one machine, both reset
	// per burst.
	shadow := core.New(cfg)
	m := new(machine)
	var burstSrc SliceSource

	for k := 0; k < nWin; k++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		// Burst start, as an absolute record index: the checkpoint key.
		burstStart := uint64(k)*uint64(interval) + uint64(gap)

		// Reach the burst start: restore a warmed snapshot if one exists —
		// jumping the source state over the gap when the snapshot carries
		// it, else streaming the gap records to keep the generator and the
		// instruction-mix counts exact — otherwise warm the gap and capture.
		// Each read asks for exactly the records before the burst start,
		// so the source is positioned at it when the checkpoint is taken.
		// A checkpoint that does not fit the system (damaged, or an older
		// format) is a miss like one taken at the wrong position.
		var st *core.SystemState
		if ck != nil {
			if got, ok := ck.Load(burstStart); ok && got.Sys != nil && got.at(burstStart) &&
				sys.RestoreState(got.Sys) == nil {
				jumped := false
				if got.Src != nil {
					if sf, ok := src.(statefulSource); ok && sf.RestoreState(*got.Src) {
						rd.instructions = got.Instructions
						rd.loads = got.Loads
						rd.stores = got.Stores
						jumped = true
					}
				}
				if !jumped {
					rd.read(gap, nil, nil)
				}
				st = got.Sys
				hits++
			}
		}
		if st == nil {
			rd.read(gap, sys, nil)
			st = sys.CaptureState()
			if ck != nil {
				save := &Checkpoint{Sys: st, Instructions: rd.instructions, Loads: rd.loads, Stores: rd.stores}
				if sf, ok := src.(statefulSource); ok {
					ss := sf.CaptureState()
					save.Src = &ss
				}
				ck.Save(burstStart, save)
				saves++
			}
		}

		// The burst records feed both the primary (trajectory identical to
		// an unmeasured run) and the shadow's replay buffer.
		rd.read(burst, sys, buf)

		burstSrc = SliceSource{Records: buf}
		cycles, dyn := m.measureBurst(cfg, shadow, st, &burstSrc, warmup)

		cpiSamples = append(cpiSamples, float64(cycles)/float64(detail))
		var epi float64
		for c := range dyn.Dynamic {
			d := dyn.Dynamic[c] / float64(detail)
			epiSum.Dynamic[c] += d
			epi += d
		}
		epiSamples = append(epiSamples, epi)
		skippedCycles += m.skippedCycles
		skipJumps += m.skipJumps
		lastMeter = shadow.Meter()
	}

	// Tail past the last full interval, shorter than a window: warmed so
	// the final memory-side statistics cover the whole trace.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	rd.read(total-nWin*interval, sys, nil)
	instructions := rd.instructions

	// Extrapolate: mean CPI and mean per-component EPI over the windows,
	// scaled to the full instruction count. Leakage is priced off the
	// estimated cycle count (it depends only on time and port config, not
	// event counts), via the last shadow's meter.
	nw := float64(nWin)
	var cpiSum float64
	for _, c := range cpiSamples {
		cpiSum += c
	}
	cpiMean := cpiSum / nw
	estCycles := uint64(cpiMean*float64(instructions) + 0.5)

	var eb energy.Breakdown
	var epiMean float64
	for c := range epiSum.Dynamic {
		mean := epiSum.Dynamic[c] / nw
		eb.Dynamic[c] = mean * float64(instructions)
		epiMean += mean
	}
	eb.Leakage = lastMeter.Finish(estCycles).Leakage

	known, covTotal := sys.Det.Coverage()
	tel := stats.NewCounters()
	tel.Add(stats.CtrSkippedCycles, skippedCycles)
	tel.Add(stats.CtrSkipJumps, skipJumps)
	tel.Add(stats.CtrSampledWindows, uint64(nWin))
	tel.Add(stats.CtrSampledWarmedRecords, rd.warmed)
	tel.Add(stats.CtrCheckpointRestores, uint64(hits))
	tel.Add(stats.CtrCheckpointSaves, uint64(saves))

	return Result{
		Telemetry:     tel,
		Config:        cfg.Name,
		Benchmark:     benchmark,
		Cycles:        estCycles,
		Instructions:  instructions,
		Loads:         rd.loads,
		Stores:        rd.stores,
		Energy:        eb,
		L1:            sys.L1.Stats(),
		L2:            sys.Back.L2.Stats(),
		UTLB:          sys.Hier.U.Stats(),
		TLB:           sys.Hier.Main.Stats(),
		CoverageKnown: known,
		CoverageTotal: covTotal,
		Counters:      sys.Ctr,
		Sampling: &SamplingEstimate{
			Windows:            nWin,
			Warmup:             warmup,
			Detail:             detail,
			Interval:           interval,
			CPIMean:            cpiMean,
			CPIRelHalfWidth:    knownHalfWidth(cpiSamples),
			EnergyMean:         epiMean,
			EnergyRelHalfWidth: knownHalfWidth(epiSamples),
			CheckpointHits:     hits,
			CheckpointMisses:   nWin - hits,
			WarmedRecords:      rd.warmed,
		},
	}, nil
}

// knownHalfWidth is RelHalfWidth95 for a SamplingEstimate: nil, unknown,
// with fewer than two windows.
func knownHalfWidth(samples []float64) *float64 {
	if len(samples) < 2 {
		return nil
	}
	hw := RelHalfWidth95(samples)
	return &hw
}

// measureBurst replays src, a burst's records, on shadow restored to the
// burst-start state st: the first warmup records retire unmeasured, the
// rest are measured. It returns the measured portion's cycles and dynamic
// energy per component.
func (m *machine) measureBurst(cfg config.Config, shadow core.Interface, st *core.SystemState, src *SliceSource, warmup int) (cycles int64, dyn energy.Breakdown) {
	if err := shadow.Restore(st); err != nil {
		// st was captured from, or restored into, a system of cfg.
		panic(fmt.Sprintf("cpu: burst-start state does not fit its own configuration: %v", err))
	}
	m.reset(cfg, shadow, src)
	if warmup > 0 {
		m.runTo(uint64(warmup))
	}
	c0 := m.cycle
	dyn0 := shadow.Meter().DynamicEnergy()
	m.runTo(uint64(len(src.Records)))
	dyn1 := shadow.Meter().DynamicEnergy()
	for c := range dyn1 {
		dyn.Dynamic[c] = dyn1[c] - dyn0[c]
	}
	return m.cycle - c0, dyn
}

// reader is the sampled path's view of its source: it reads exact runs of
// records and keeps the instruction-mix and warming counts.
type reader struct {
	src                                 Source
	instructions, loads, stores, warmed uint64
}

// read consumes exactly n records and counts them into the instruction
// mix. With a non-nil sys it also drives them through functional warming,
// and with a non-nil dst it copies them there. No Next asks for more than
// the records left, so the source ends up exactly n records on. The
// schedule was sized from the source's Remaining, so running dry is a
// source bug.
func (r *reader) read(n int, sys *core.System, dst []trace.Record) {
	for n > 0 {
		recs := r.src.Next(n)
		if len(recs) == 0 {
			panic(fmt.Sprintf("cpu: source ran dry mid-schedule after %d records (Remaining lied)", r.instructions))
		}
		n -= len(recs)
		r.instructions += uint64(len(recs))
		dst = dst[copy(dst, recs):]
		if sys == nil {
			for i := range recs {
				switch recs[i].Kind {
				case trace.Load:
					r.loads++
				case trace.Store:
					r.stores++
				}
			}
			continue
		}
		r.warmed += uint64(len(recs))
		for i := range recs {
			switch recs[i].Kind {
			case trace.Load:
				r.loads++
				sys.WarmLoad(recs[i].Addr)
			case trace.Store:
				r.stores++
				sys.WarmStore(recs[i].Addr)
			}
		}
	}
}
