package cpu

// Sampled simulation (tentpole of the sampled+checkpointed-simulation PR):
// SMARTS-style interval sampling over the trace. The run is divided into
// fixed intervals; most of each interval is driven through functional
// warming (core.System.WarmLoad/WarmStore — full memory-side state
// machine, no cycle accounting), and a short detailed burst at the end of
// each interval is measured cycle-accurately on a throwaway machine. The
// per-window CPI and energy-per-instruction samples extrapolate to
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
//
// Because the primary does not depend on the core side, one pass serves
// every configuration of a memory side: it warms the primary once and, at
// each window, measures every configuration's burst from the same captured
// state, one after another, each on its own shadow. The shadows share one
// memory side (core.NewShadows), which each Restore rebinds to its shadow,
// so a side holds one primary and one shadow memory side whatever its
// configuration count. Neither does the trace depend on the memory side:
// a pass over the configurations of one trace warms up to MaxPassSides
// memory sides side by side, each on its own goroutine, reading one
// generated record stream (a GenSource's readers). A single run is a pass
// of one.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"malec/internal/config"
	"malec/internal/core"
	"malec/internal/energy"
	"malec/internal/stats"
	"malec/internal/trace"
)

// Checkpoint is one warmed snapshot: the memory-side state at a record
// count from the run's start — everything needed to resume the
// functional-warming trajectory there. A restore still streams the
// records before it, unwarmed, so the source and the instruction-mix
// counts stay exact.
type Checkpoint struct {
	Sys *core.SystemState
	// Instructions counts the records before the checkpoint.
	Instructions uint64
}

// Checkpoints is an optional store of warmed snapshots, keyed by the
// number of records from the run's start at which the snapshot was taken.
// A store serves one trace (benchmark, seed, starting record) and one
// memory side: its owner keeps that identity, so two core-side config
// variants over the same trace share entries. malecbench's
// sampled-vs-exact comparison and perfbench's cpu probe keep such a store
// in memory; the engine keeps none, since the configurations of a memory
// side already share their warm state in one pass. Load returns a
// snapshot that must not be mutated; Save takes ownership of an immutable
// snapshot.
type Checkpoints interface {
	Load(n uint64) (*Checkpoint, bool)
	Save(n uint64, ck *Checkpoint)
}

// MaxPassSides is the most memory sides one pass warms. Each side warms on
// its own goroutine, and a pass of one side runs its source's
// generate-ahead helper beside it, so a pass never runs more than two
// goroutines.
const MaxPassSides = 2

// RunPassContext runs one sampled pass over src for cfgs, which must share
// a sampling schedule that src covers at least once, and returns their
// results in order. The configurations of each memory side
// (config.MemSide) share one warmed primary; cfgs may hold at most
// MaxPassSides memory sides, which warm side by side, each reading the
// whole of src, which must then be a GenSource. Each result is the one
// RunContext gives for its configuration alone, except that only the
// first configuration of each memory side reports that side's warming and
// checkpoint counts. A panic on any side stops the others at their next
// window and re-panics here once every side has returned.
func RunPassContext(ctx context.Context, cfgs []config.Config, benchmark string, src Source) ([]Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if gen, ok := src.(*GenSource); ok {
		defer gen.stopHelper()
	}
	total := src.(sizedSource).Remaining()
	var (
		sides []config.MemSide
		at    [][]int // the indexes in cfgs of each side's configurations
	)
	for i, cfg := range cfgs {
		if !Sampled(cfg, total) || *cfg.Sampling != *cfgs[0].Sampling {
			panic(fmt.Sprintf("cpu: %s does not take a sampled pass over %d records with the schedule of %s", cfg.Name, total, cfgs[0].Name))
		}
		k := slices.Index(sides, cfg.MemSide())
		if k < 0 {
			k = len(sides)
			sides, at = append(sides, cfg.MemSide()), append(at, nil)
		}
		at[k] = append(at[k], i)
	}
	switch {
	case len(sides) > MaxPassSides:
		panic(fmt.Sprintf("cpu: a pass takes at most %d memory sides, not %d", MaxPassSides, len(sides)))
	case len(sides) == 1:
		return runSampled(ctx, cfgs, benchmark, src, total, nil)
	}
	return runSides(ctx, cfgs, at, benchmark, src, total)
}

// runSides runs the sampled pass of each memory side, side k taking the
// configurations cfgs[i] for i in at[k]: side 0 on the calling goroutine,
// the others on goroutines of their own, each over its own reader of src,
// which must be a GenSource. A panic cancels the other sides and
// re-panics once all have returned.
func runSides(ctx context.Context, cfgs []config.Config, at [][]int, benchmark string, src Source, total int) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	gen, ok := src.(*GenSource)
	if !ok {
		panic(fmt.Sprintf("cpu: a pass shares a GenSource between memory sides, not a %T", src))
	}
	readers := make([]*genReader, len(at))
	for k := range readers {
		readers[k] = &genReader{}
		gen.attach(readers[k])
	}
	results := make([]Result, len(cfgs))
	errs := make([]error, len(at))
	panics := make([]any, len(at))
	side := func(k int) {
		defer func() {
			if panics[k] = recover(); panics[k] != nil {
				cancel()
			}
		}()
		defer readers[k].close()
		mine := make([]config.Config, len(at[k]))
		for n, i := range at[k] {
			mine[n] = cfgs[i]
		}
		res, err := runSampled(ctx, mine, benchmark, readers[k], total, nil)
		errs[k] = err
		for n, i := range at[k][:len(res)] {
			results[i] = res[n]
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < len(at); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			side(k)
		}()
	}
	side(0)
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// sampledPoint is one configuration's side of a pass: its machine and the
// per-window samples of its bursts.
type sampledPoint struct {
	m                        machine
	cpi, epi                 []float64
	epiSum                   energy.Breakdown
	skippedCycles, skipJumps uint64
}

// runSampled executes the sampled fast path for every configuration of
// cfgs, which share their memory side and schedule. total is the number of
// records the source will yield (>= one interval, checked by the caller).
// ctx, when non-nil, is polled once per window and before the tail warm;
// windows are bounded (one interval of warming plus one burst per
// configuration) and the tail is shorter than one, so cancellation lands
// within a window's worth of work.
func runSampled(ctx context.Context, cfgs []config.Config, benchmark string, src Source, total int, ck Checkpoints) ([]Result, error) {
	sch := cfgs[0].Sampling
	warmup, detail, interval := sch.Warmup, sch.Detail, sch.Interval
	burst := warmup + detail
	gap := interval - burst
	nWin := total / interval

	sys := core.NewSystem(cfgs[0])
	sys.SetWarming(true)

	var hits int
	rd := reader{src: src}
	buf := make([]trace.Record, burst)
	// Every burst of a configuration replays buf on its shadow and its
	// machine, both reset per burst; the shadows share one memory side.
	shadows := core.NewShadows(cfgs)
	points := make([]sampledPoint, len(cfgs))
	for i := range points {
		points[i].cpi = make([]float64, 0, nWin)
		points[i].epi = make([]float64, 0, nWin)
	}
	var burstSrc SliceSource

	for k := 0; k < nWin; k++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Burst start, in records from the run's start: the checkpoint key.
		burstStart := uint64(k)*uint64(interval) + uint64(gap)

		// Reach the burst start: restore a warmed snapshot if one exists,
		// streaming the gap records unwarmed to keep the source and the
		// instruction-mix counts exact; otherwise warm the gap and capture.
		// A checkpoint taken at another count, or one that does not fit
		// the system (damaged, or an older format), is a miss: the run
		// warms the gap and overwrites it.
		var st *core.SystemState
		if ck != nil {
			if got, ok := ck.Load(burstStart); ok && got.Sys != nil && got.Instructions == burstStart &&
				sys.RestoreState(got.Sys) == nil {
				rd.read(gap, nil, nil)
				st = got.Sys
				hits++
			}
		}
		if st == nil {
			rd.read(gap, sys, nil)
			st = sys.CaptureState()
			if ck != nil {
				ck.Save(burstStart, &Checkpoint{Sys: st, Instructions: rd.instructions})
			}
		}

		// The burst records feed both the primary (trajectory identical to
		// an unmeasured run) and the shadows' replay buffer.
		rd.read(burst, sys, buf)

		for i := range points {
			p := &points[i]
			burstSrc = SliceSource{Records: buf}
			cycles, dyn := p.m.measureBurst(cfgs[i], shadows[i], st, &burstSrc, warmup)
			p.cpi = append(p.cpi, float64(cycles)/float64(detail))
			var epi float64
			for c := range dyn.Dynamic {
				d := dyn.Dynamic[c] / float64(detail)
				p.epiSum.Dynamic[c] += d
				epi += d
			}
			p.epi = append(p.epi, epi)
			p.skippedCycles += p.m.skippedCycles
			p.skipJumps += p.m.skipJumps
		}
	}

	// Tail past the last full interval, shorter than a window: warmed so
	// the final memory-side statistics cover the whole trace.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	rd.read(total-nWin*interval, sys, nil)
	instructions := rd.instructions
	known, covTotal := sys.Det.Coverage()

	results := make([]Result, len(cfgs))
	for i := range points {
		p := &points[i]
		// Extrapolate: mean CPI and mean per-component EPI over the
		// windows, scaled to the full instruction count. Leakage is priced
		// off the estimated cycle count (it depends only on time and port
		// config, not event counts), via the configuration's shadow meter.
		nw := float64(nWin)
		var cpiSum float64
		for _, c := range p.cpi {
			cpiSum += c
		}
		cpiMean := cpiSum / nw
		estCycles := uint64(cpiMean*float64(instructions) + 0.5)

		var eb energy.Breakdown
		var epiMean float64
		for c := range p.epiSum.Dynamic {
			mean := p.epiSum.Dynamic[c] / nw
			eb.Dynamic[c] = mean * float64(instructions)
			epiMean += mean
		}
		eb.Leakage = shadows[i].Meter().Finish(estCycles).Leakage
		// The energy samples are of total energy per instruction: each
		// window's dynamic EPI plus the leakage its CPI costs. Leakage is
		// linear in cycles, so the mean sample times the instruction
		// count is eb.Total() to within the rounding of estCycles.
		leak := shadows[i].Meter().Finish(1).TotalLeakage()
		for k := range p.epi {
			p.epi[k] += leak * p.cpi[k]
		}
		epiMean += leak * cpiMean

		// The primary's warming and checkpoint traffic are the pass's:
		// the first configuration reports them, the others none. Each
		// result gets its own copy of the primary's (untouched) counters:
		// the System's own would keep the whole memory side alive as long
		// as the result.
		ctr := stats.NewCounters()
		ctr.Merge(sys.Ctr)
		warmed, pHits, pMisses := rd.warmed, hits, nWin-hits
		if i > 0 {
			warmed, pHits, pMisses = 0, 0, 0
		}
		tel := stats.NewCounters()
		tel.Add(stats.CtrSkippedCycles, p.skippedCycles)
		tel.Add(stats.CtrSkipJumps, p.skipJumps)

		results[i] = Result{
			Telemetry:     tel,
			Config:        cfgs[i].Name,
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
			Counters:      ctr,
			Sampling: &SamplingEstimate{
				Windows:            nWin,
				Warmup:             warmup,
				Detail:             detail,
				Interval:           interval,
				CPIMean:            cpiMean,
				CPIRelHalfWidth:    knownHalfWidth(p.cpi),
				EnergyMean:         epiMean,
				EnergyRelHalfWidth: knownHalfWidth(p.epi),
				CheckpointHits:     pHits,
				CheckpointMisses:   pMisses,
				WarmedRecords:      warmed,
			},
		}
	}
	return results, nil
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
