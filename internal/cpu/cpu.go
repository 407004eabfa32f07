// Package cpu implements the trace-driven cycle-level out-of-order core
// model that drives the L1 interfaces: a 168-entry ROB, 6-wide
// fetch/dispatch and commit, 8-wide issue, dependency-scoreboarded
// execution, a bounded load queue, and store commit into the store buffer
// (paper Tab. II). It substitutes for the paper's gem5 setup: only the
// *relative* timing across L1 interface variants matters, which the model
// exposes through the same widths, latencies and structural limits.
package cpu

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"malec/internal/buffers"
	"malec/internal/cache"
	"malec/internal/config"
	"malec/internal/core"
	"malec/internal/energy"
	"malec/internal/mem"
	"malec/internal/stats"
	"malec/internal/tlb"
	"malec/internal/trace"
)

// Source supplies trace records in chunks. Next returns the next run of at
// most max (> 0) records, fewer when the source has fewer ready, and an
// empty slice at end of trace. The chunk stays valid until the following
// Next call and must not be modified.
type Source interface {
	Next(max int) []trace.Record
}

// sourceChunk is the chunk size the cycle loop asks for: 32 KB of
// records.
const sourceChunk = 1024

// SliceSource reads a complete trace held in memory, such as a
// trace.Cache arena. Chunks are sub-slices of Records, so reading copies
// no record.
type SliceSource struct {
	Records []trace.Record
	pos     int
}

// Next implements Source.
func (s *SliceSource) Next(max int) []trace.Record {
	end := min(s.pos+max, len(s.Records))
	recs := s.Records[s.pos:end:end]
	s.pos = end
	return recs
}

// Remaining reports how many records are left (sampling schedule sizing).
func (s *SliceSource) Remaining() int { return len(s.Records) - s.pos }

// GenSource generates a trace of N records from Gen into a fixed ring of
// genRingSlots chunks of genChunk records (512 KB), so no run holds its
// whole trace. One or more readers consume the ring, each at its own pace:
// Next reads through the source's own reader, and a sampled pass over two
// memory sides gives each side a reader of its own. A slot is reused once
// every open reader has released it. Whichever reader needs a chunk that
// nobody has generated yet generates it under a claim, so readers share
// generation without a goroutine of their own. A source read through Next
// also starts one generate-only helper on the first Next, which generates
// as far ahead as the ring allows and exits once the trace is generated or
// when the run reading the source returns. A generation panic, in a
// reader or in the helper, re-panics in every reader's next fetch.
//
// The helper earns its place on a source with one reader: it overlaps
// trace generation with functional warming, the two costs of a sampled
// point. On a 2-core host, a GenSource that generated synchronously in
// Next passed every test but cut perfbench's sweep-sampled throughput
// from a 14.9 to a 12.2 Minstr/s median (6 alternating pairs) and raised
// its setup_s about 20%. A pass over two memory sides runs none: its
// sides warm on two goroutines and the side that runs ahead generates,
// which overlaps generation with the other side's warming and keeps the
// pass on two cores. That pass took sweep-sampled from 23.6 to 33.4
// Minstr/s (10 of 10 pairs), while its slowest gap between finished
// points (tail_ms), now ptrchase's unit, read 1,269 ms against 1,231 ms
// for the ptrchase MALEC pass alone.
type GenSource struct {
	Gen *trace.Generator
	N   int

	own   genReader      // the reader behind Next
	chunk int            // records per slot (0: genChunk)
	hook  func()         // tests only: called after each chunk is generated
	wg    sync.WaitGroup // the running helper

	mu        sync.Mutex
	cond      sync.Cond // signals every change below
	ring      [genRingSlots][]trace.Record
	readers   []*genReader // open readers
	generated int          // chunks generated
	claimed   bool         // a chunk is being generated
	helping   bool         // the helper is running
	stop      bool         // the helper must exit
	failure   any          // a generation panic's value
}

// genRingSlots and genChunk size GenSource's ring: four 8192-record slots
// let generation run a few chunks ahead of a reader that stalls on a slow
// stretch, in 512 KB instead of the whole trace.
const (
	genRingSlots = 4
	genChunk     = 8192
)

// genReader is one reader of a GenSource's ring. pos and cur are touched
// only by the reader's goroutine; done and holding are guarded by the
// source's mu.
type genReader struct {
	s       *GenSource
	pos     int            // records returned
	cur     []trace.Record // unread rest of the chunk being read
	done    int            // chunks released
	holding bool           // the reader holds chunk done
}

// Next implements Source.
func (s *GenSource) Next(max int) []trace.Record {
	if s.own.s == nil {
		s.attach(&s.own)
	}
	return s.own.Next(max)
}

// attach opens r at the first record, allocating the ring on first use. A
// source is read either through Next or by the readers of one pass.
func (s *GenSource) attach(r *genReader) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cond.L == nil {
		s.cond.L = &s.mu
		if s.chunk <= 0 {
			s.chunk = genChunk
		}
		buf := make([]trace.Record, genRingSlots*s.chunk)
		for i := range s.ring {
			s.ring[i] = buf[i*s.chunk : (i+1)*s.chunk]
		}
	}
	if s.own.s != nil || s.generated > 0 {
		panic("cpu: a GenSource is read through Next or by the readers of one pass, from its first record")
	}
	r.s = s
	s.readers = append(s.readers, r)
}

// Next implements Source.
func (r *genReader) Next(max int) []trace.Record {
	if len(r.cur) == 0 {
		if r.pos >= r.s.N {
			return nil
		}
		r.fetch()
	}
	n := min(max, len(r.cur))
	recs := r.cur[:n:n]
	r.cur = r.cur[n:]
	r.pos += n
	return recs
}

// fetch releases the chunk r has finished, starts the helper of a source
// read through Next, and takes the next chunk, generating it if nobody
// has and its slot is free.
func (r *genReader) fetch() {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.holding {
		r.done++
		r.holding = false
		s.cond.Broadcast()
	}
	if r == &s.own && !s.helping && !s.stop && s.generated < s.chunks() && s.failure == nil {
		s.helping = true
		s.wg.Add(1)
		go s.help()
	}
	for s.failure != nil || r.done >= s.generated {
		switch {
		case s.failure != nil:
			panic(s.failure)
		case !s.claimed && s.free(s.generated):
			s.generate()
		default:
			s.cond.Wait()
		}
	}
	r.cur = s.ring[r.done%genRingSlots][:min(s.chunk, s.N-r.done*s.chunk)]
	r.holding = true
}

// close releases every slot r holds or would hold: the other readers no
// longer wait for it.
func (r *genReader) close() {
	s := r.s
	s.mu.Lock()
	s.readers = slices.DeleteFunc(s.readers, func(o *genReader) bool { return o == r })
	s.cond.Broadcast()
	s.mu.Unlock()
}

// chunks is the number of chunks in the trace. Caller holds s.mu.
func (s *GenSource) chunks() int { return (s.N + s.chunk - 1) / s.chunk }

// free reports whether chunk c's slot is free: every open reader has
// released the chunk genRingSlots before it. Caller holds s.mu.
func (s *GenSource) free(c int) bool {
	for _, r := range s.readers {
		if r.done+genRingSlots <= c {
			return false
		}
	}
	return true
}

// generate fills the next chunk's slot under a claim, unlocked. A panic
// becomes the source's failure and continues in the caller. Caller holds
// s.mu, and the chunk is unclaimed with a free slot.
func (s *GenSource) generate() {
	slot := s.generated % genRingSlots
	recs := s.ring[slot][:min(s.chunk, s.N-s.generated*s.chunk)]
	s.claimed = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.claimed = false
		s.cond.Broadcast()
		if v := recover(); v != nil {
			s.failure = v
			panic(v)
		}
		s.generated++
	}()
	for i := range recs {
		s.Gen.Fill(&recs[i])
	}
	if s.hook != nil {
		s.hook()
	}
}

// help generates chunks while their slots are free, and exits once the
// trace is generated, on stopHelper, or on a generation panic, which the
// reader re-panics.
func (s *GenSource) help() {
	defer s.wg.Done()
	s.mu.Lock()
	defer func() {
		recover() // s.failure holds a generation panic for the reader
		s.helping = false
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	for s.generated < s.chunks() && !s.stop && s.failure == nil {
		if s.claimed || !s.free(s.generated) {
			s.cond.Wait()
			continue
		}
		s.generate()
	}
}

// stopHelper stops the helper for good and waits for it to exit: a later
// Next generates for itself.
func (s *GenSource) stopHelper() {
	s.mu.Lock()
	s.stop = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Remaining reports how many records are left (sampling schedule sizing).
func (s *GenSource) Remaining() int { return s.N - s.own.pos }

// sizedSource is implemented by sources whose remaining length is known up
// front; the sampled path needs it to lay out the window schedule.
type sizedSource interface {
	Remaining() int
}

// Result summarizes one simulation run.
type Result struct {
	Config    string
	Benchmark string

	Cycles       uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64

	Energy energy.Breakdown
	L1     cache.Stats
	L2     cache.L2Stats
	UTLB   tlb.Stats
	TLB    tlb.Stats

	CoverageKnown uint64
	CoverageTotal uint64

	// Counters are the run's event counters. The result owns them: no
	// later run changes them, although exact runs reuse their machines.
	Counters *stats.Counters

	// Telemetry carries host-simulator counters (cycle-skip activity:
	// stats.CtrSkippedCycles, stats.CtrSkipJumps; a sampled run's window,
	// warming and checkpoint counts are in Sampling). They describe how
	// the simulator executed, not what the simulated machine did, and
	// are excluded from the JSON encoding so semantic results — golden
	// files, cached campaign exports — are byte-identical whether cycle
	// skipping was on or off.
	Telemetry *stats.Counters `json:"-"`

	// Sampling describes how a sampled run's estimates were formed: the
	// schedule, the number of measurement windows and per-metric confidence
	// intervals. Nil on the exact path. Like Telemetry it is excluded from
	// the JSON encoding, so sampled and exact results share one semantic
	// shape and the exact path's golden grid is untouched.
	Sampling *SamplingEstimate `json:"-"`
}

// SamplingEstimate reports the quality of a sampled run's extrapolation.
type SamplingEstimate struct {
	// Windows is the number of detailed measurement windows taken.
	Windows int
	// Warmup, Detail, Interval echo the schedule used.
	Warmup   int
	Detail   int
	Interval int
	// CPIMean is the mean cycles-per-instruction across windows;
	// CPIRelHalfWidth is the 95% confidence half-width relative to the
	// mean (t * stderr / mean, t for Windows-1 degrees of freedom). With
	// fewer than two windows the interval is unknown: both half-widths
	// are nil and left out of the JSON encoding.
	CPIMean         float64
	CPIRelHalfWidth *float64 `json:",omitempty"`
	// EnergyMean is the mean total energy per instruction (pJ) across
	// windows: a window's sample is its dynamic energy per instruction
	// plus the configuration's leakage per cycle times the window's CPI,
	// so EnergyMean times Instructions is Energy.Total() to within one
	// cycle's leakage. EnergyRelHalfWidth is its relative 95% half-width.
	EnergyMean         float64
	EnergyRelHalfWidth *float64 `json:",omitempty"`
	// CheckpointHits/Misses count warm-state restores vs fresh warms at
	// window boundaries (always Misses == Windows when no store is wired).
	// WarmedRecords counts trace records driven through functional
	// warming (the gap records a checkpoint restore streams past are
	// excluded).
	// A pass over several configurations (RunPassContext) warms once:
	// its first configuration reports these three, the others zero, so
	// sums over a campaign count each pass once.
	CheckpointHits   int
	CheckpointMisses int
	WarmedRecords    uint64
}

// t975 holds the Student-t quantiles t(0.975, df) for df = 1..30.
var t975 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// t95 returns t(0.975, df) for df >= 1 from a table of df = 1..30, 40, 60
// and 120, taking the entry at or below df: the wider, conservative
// interval. The df = infinity entry, 1.960, is never at or below a finite df.
func t95(df int) float64 {
	switch {
	case df >= 120:
		return 1.980
	case df >= 60:
		return 2.000
	case df >= 40:
		return 2.021
	}
	return t975[min(df, 30)-1]
}

// RelHalfWidth95 returns the 95% confidence half-width of mean relative to
// the mean, given per-window samples, using the Student-t quantile for
// len(samples)-1 degrees of freedom. It returns 0 when there are fewer
// than two windows; SamplingEstimate reports that case as nil, unknown.
func RelHalfWidth95(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return t95(n-1) * sd / math.Sqrt(float64(n)) / math.Abs(mean)
}

// SkipRate returns the fraction of simulated cycles that were fast-forwarded
// rather than executed (0 when telemetry is absent, e.g. on results decoded
// from a disk cache).
func (r Result) SkipRate() float64 {
	if r.Telemetry == nil || r.Cycles == 0 {
		return 0
	}
	return float64(r.Telemetry.Get(stats.CtrSkippedCycles)) / float64(r.Cycles)
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Coverage returns the way-determination coverage ratio.
func (r Result) Coverage() float64 {
	if r.CoverageTotal == 0 {
		return 0
	}
	return float64(r.CoverageKnown) / float64(r.CoverageTotal)
}

// unknownDone marks instructions whose completion cycle is not yet known.
const unknownDone = math.MaxInt64 / 2

// doneWindow is the size of the completion-time ring; it must exceed
// ROB size + maximum dependency distance.
const doneWindow = 4096

// trace.Record holds dependency distances as uint16: these constant
// conversions fail to compile if the generator's window or the completion
// ring could ever reach a distance the record cannot hold.
const (
	_ = uint16(trace.MaxDepWindow)
	_ = uint16(doneWindow)
)

// instr is one in-flight instruction.
type instr struct {
	rec    trace.Record
	seq    uint64
	issued bool
	done   int64
}

// machineSlabs are the machine's ROB-sized arrays, which reset keeps.
type machineSlabs struct {
	rob []instr // ring storage, len is a power of two >= cfg.ROB
	// readyMask holds one bit per ROB slot, set while the slot holds an
	// unissued instruction with no pending producers; issue walks the set
	// bits in age order (slots are assigned in sequence order, so slot
	// order from the head is age order).
	readyMask []uint64
	// readyAt[slot] is the earliest cycle the slot's instruction may
	// issue; meaningful once pendingDeps[slot] is zero.
	readyAt []int64
	// pendingDeps[slot] counts producers whose completion time is still
	// unknown, plus one for a store behind an unissued store; the slot
	// enters the ready mask when it reaches zero.
	pendingDeps []uint8
	// wakeHead[slot] and wakeNext form the per-producer wakeup lists:
	// wakeHead is the producer's first node (-1 when empty) and node j
	// (= consumer slot * 2 + dep index) links to wakeNext[j]. The slab is
	// fixed at Run: an instruction has at most two producers, so two
	// nodes per slot always suffice, and steady state allocates nothing.
	wakeHead []int32
	wakeNext []int32
	// storeSeqs is a ring of the sequence numbers of unissued stores in
	// program order. Store order is a wakeup dependency: a store
	// dispatched behind an unissued store counts one extra pending
	// dependency, released when the store ahead of it issues, so only the
	// ring's head is ever in the ready mask.
	storeSeqs []uint64
}

// machine is the transient simulation state. The ROB is a fixed ring
// (capacity rounded up to a power of two): dispatch writes at the tail,
// retire pops at the head, and completions index entries directly via
// their sequence numbers, which are contiguous within the window.
type machine struct {
	cfg   config.Config
	iface core.Interface
	src   Source
	// chunk holds the records pulled from src and not yet dispatched; its
	// head is retried first when a full load queue stalls dispatch.
	chunk []trace.Record
	lq    buffers.LoadQueue
	machineSlabs
	robMask uint64
	robHead uint64 // ring index of the oldest instruction
	robLen  int
	// issueHint is the number of leading ROB entries known to be issued;
	// the reference issue scan starts there instead of at the head.
	// Entries never un-issue, so the prefix only shrinks when retire pops
	// the head.
	issueHint int
	doneAt    [doneWindow]int64
	seq       uint64
	cycle     int64
	// depLimit bounds dependency distances: a producer further back would
	// alias a younger instruction's doneAt slot while the consumer is
	// still in flight, silently corrupting completion times. Dispatch
	// panics past it.
	depLimit uint64

	// wake enables the producer->consumer wakeup scheduler, set by
	// newMachine: a completing producer marks its dependents ready
	// directly, so issue drains an age-ordered ready set instead of
	// rescanning the ROB every cycle. Only the package tests clear it, to
	// run the scan path (issueScan) as the scheduler's differential oracle.
	wake bool
	// storeQHead and storeQTail are the storeSeqs ring's head and tail,
	// taken modulo its length.
	storeQHead uint64
	storeQTail uint64

	instructions uint64
	loads        uint64
	stores       uint64
	srcDone      bool

	// retired counts committed instructions; stopAt, when non-zero, makes
	// run return once retired reaches it (checked at the top of the loop,
	// so the crossing cycle always completes in full and a subsequent run
	// continues bit-identically to an uninterrupted one). The sampled path
	// uses the pair to split a measurement burst into warmup and detail.
	retired uint64
	stopAt  uint64

	// redirectSeq, when non-zero, is the sequence number of an in-flight
	// mispredicted branch: dispatch stalls until it resolves, then pays
	// the front-end refill penalty (redirectUntil).
	redirectSeq   uint64
	redirectUntil int64

	// skipDisabled forces the plain cycle-by-cycle loop; only the package
	// tests set it, to run that loop as the fast-forward's differential
	// oracle. skippedCycles/skipJumps count the fast-forward activity for
	// Result.Telemetry.
	skipDisabled  bool
	skippedCycles uint64
	skipJumps     uint64

	// ctx, when non-nil, is polled every cancelCheckInterval cycles at the
	// top of the loop; a cancelled context sets cancelled and abandons the
	// run. A nil ctx (every exact-path legacy caller) keeps the loop
	// byte-identical and allocation-free. Polling never mutates model
	// state, so an uncancelled run is bit-identical with or without ctx.
	ctx           context.Context
	cancelCheckAt int64
	cancelled     bool
}

// cancelCheckInterval is how many simulated cycles pass between context
// polls: coarse enough to be invisible in profiles (one Err() call per
// ~260k cycles, well under a millisecond of wall time), fine enough that a
// disconnecting client stops a 100M-instruction burn within tens of
// milliseconds.
const cancelCheckInterval = 1 << 18

// frontendRefill is the pipeline refill penalty after a branch
// misprediction resolves, in cycles.
const frontendRefill = 20

// Run simulates src to completion on the machine described by cfg and
// returns the collected results. It panics if the ROB is too large for the
// completion-time window: completion times are kept in a doneWindow-entry
// ring indexed by sequence number, and the aliasing-freedom proof needs
// every dependency (at most trace.MaxDepWindow back) of every in-flight
// instruction to still be resident.
func Run(cfg config.Config, benchmark string, src Source) Result {
	res, err := RunContext(nil, cfg, benchmark, src)
	if err != nil {
		// Unreachable: a nil context is never cancelled.
		panic(err)
	}
	return res
}

// RunContext is Run with cancellation: the cycle loop (or, on the sampled
// path, the window loop) polls ctx at coarse boundaries and abandons the
// run with ctx.Err() once it is cancelled. A nil ctx disables polling
// entirely; an uncancelled run returns results bit-identical to Run. The
// result owns everything it holds, its Counters included.
func RunContext(ctx context.Context, cfg config.Config, benchmark string, src Source) (Result, error) {
	return RunWithCheckpointsContext(ctx, cfg, benchmark, src, nil)
}

// RunWithCheckpointsContext is RunContext with an optional
// microarchitectural checkpoint store. When the configuration carries a
// sampling schedule and the source is long enough for at least one
// interval, the run goes through the sampled fast path and the store is
// consulted/populated at measurement-window boundaries; otherwise the
// store is ignored and the run is exact, byte-identical to Run with
// Sampling == nil. The shadow burst machines of the sampled path run
// without ctx — bursts are a few thousand instructions, shorter than one
// polling interval — so cancellation lands between windows.
//
// An exact run takes a finished exact run's machine, interface and memory
// side from a pool and resets them for cfg, keeping the storage cfg's
// geometry fits, instead of building them; the result is the one a new
// machine gives. The result owns its Counters, so a later run on the same
// machine leaves it unchanged. A run that panics or is cancelled does not
// return its machine to the pool.
func RunWithCheckpointsContext(ctx context.Context, cfg config.Config, benchmark string, src Source, ck Checkpoints) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if gen, ok := src.(*GenSource); ok {
		defer gen.stopHelper()
	}
	if s := cfg.Sampling; s != nil && !s.Valid() {
		panic(fmt.Sprintf("cpu: invalid sampling schedule %+v (need Detail > 0, Warmup >= 0, Warmup+Detail <= Interval)", *s))
	}
	if sized, ok := src.(sizedSource); ok && Sampled(cfg, sized.Remaining()) {
		res, err := runSampled(ctx, []config.Config{cfg}, benchmark, src, sized.Remaining(), ck)
		if err != nil {
			return Result{}, err
		}
		return res[0], nil
	}
	m := exactMachine(cfg, src)
	m.ctx = ctx
	m.run()
	if m.cancelled {
		return Result{}, ctx.Err()
	}
	res := m.result(benchmark)
	m.release()
	return res, nil
}

// machines holds the machines of finished exact runs, each with its
// interface and memory side, for the next exact run to reset instead of
// building them anew. It is a sync.Pool, so a garbage collection may empty
// it. A run that panics or is cancelled leaves its machine out.
var machines sync.Pool

// exactMachine returns a machine for an exact run of cfg over src: a
// finished run's machine renewed for cfg, or a new one.
func exactMachine(cfg config.Config, src Source) *machine {
	m, ok := machines.Get().(*machine)
	if !ok {
		return newMachine(cfg, core.New(cfg), src)
	}
	m.renew(cfg, src)
	return m
}

// renew readies a machine built by newMachine over core.New, or renewed,
// for an exact run of cfg over src, as newMachine(cfg, core.New(cfg), src)
// builds it, in its own storage and its interface's.
func (m *machine) renew(cfg config.Config, src Source) {
	m.reset(cfg, core.Renew(m.iface, cfg), src)
}

// release puts a finished machine, whose result has been taken, in the
// pool, without its source and context.
func (m *machine) release() {
	m.src, m.chunk, m.ctx = nil, nil, nil
	machines.Put(m)
}

// Sampled reports whether a run of cfg over n records takes the sampled
// path: cfg has a valid sampling schedule and n covers at least one
// interval. Shorter or unscheduled runs are exact.
func Sampled(cfg config.Config, n int) bool {
	s := cfg.Sampling
	return s != nil && s.Valid() && n >= s.Interval
}

// newMachine builds the transient core-model state over an interface and a
// source, validating the configuration's geometry.
func newMachine(cfg config.Config, iface core.Interface, src Source) *machine {
	m := &machine{}
	m.reset(cfg, iface, src)
	return m
}

// reset readies m for a run of cfg over iface and src exactly as
// newMachine builds it, reusing its slabs when cfg's ROB fits them: the
// sampled path runs every measurement burst of a point on one machine, and
// an exact run renews a finished run's machine.
func (m *machine) reset(cfg config.Config, iface core.Interface, src Source) {
	if cfg.ROB <= 0 {
		panic("cpu: ROB size must be positive")
	}
	if cfg.ROB+trace.MaxDepWindow >= doneWindow {
		panic(fmt.Sprintf(
			"cpu: ROB=%d too large for the %d-entry completion window: ROB + trace.MaxDepWindow (%d) must stay below it or in-window producers' completion times would be silently overwritten",
			cfg.ROB, doneWindow, trace.MaxDepWindow))
	}
	robCap := 1
	for robCap < cfg.ROB {
		robCap <<= 1
	}
	old := m.machineSlabs
	if len(old.rob) != robCap {
		old = machineSlabs{
			rob:         make([]instr, robCap),
			readyMask:   make([]uint64, (robCap+63)/64),
			readyAt:     make([]int64, robCap),
			pendingDeps: make([]uint8, robCap),
			wakeHead:    make([]int32, robCap),
			wakeNext:    make([]int32, 2*robCap),
			storeSeqs:   make([]uint64, robCap),
		}
	} else {
		clear(old.rob)
		clear(old.readyMask)
		clear(old.readyAt)
		clear(old.pendingDeps)
		clear(old.wakeNext)
		clear(old.storeSeqs)
	}
	for i := range old.wakeHead {
		old.wakeHead[i] = -1
	}
	// Every other field, doneAt included, starts at its zero value:
	// pre-history completion times are 0, always ready.
	*m = machine{cfg: cfg, iface: iface, src: src,
		machineSlabs: old,
		robMask:      uint64(robCap - 1),
		depLimit:     uint64(doneWindow - cfg.ROB),
		wake:         true,
	}
	m.lq.Init(cfg.LQ)
}

// robAt returns the i-th in-flight instruction, oldest first.
func (m *machine) robAt(i int) *instr {
	return &m.rob[(m.robHead+uint64(i))&m.robMask]
}

// run executes the cycle loop. A stall detector panics with a state dump if
// nothing makes progress for a long stretch (a model bug, never a valid
// simulation outcome).
func (m *machine) run() {
	lastProgress := int64(0)
	lastState := ""
	for {
		if m.stopAt > 0 && m.retired >= m.stopAt {
			return
		}
		if m.ctx != nil && m.cycle >= m.cancelCheckAt {
			if m.ctx.Err() != nil {
				m.cancelled = true
				return
			}
			m.cancelCheckAt = m.cycle + cancelCheckInterval
		}
		m.cycle++
		progressed := false
		for _, c := range m.iface.Tick() {
			m.complete(c.Seq)
			progressed = true
		}
		if m.retire() > 0 {
			progressed = true
		}
		if m.issue() > 0 {
			progressed = true
		}
		before := m.instructions
		m.dispatch()
		if m.instructions != before {
			progressed = true
		}
		if progressed {
			lastProgress = m.cycle
		} else if m.cycle-lastProgress > 100000 {
			state := m.stateDump()
			if state == lastState {
				panic("cpu: deadlock detected\n" + state)
			}
			lastState = state
			lastProgress = m.cycle
		}
		if m.srcDone && m.robLen == 0 {
			// Keep flushing: store-buffer entries committed on the last
			// retire cycles drain into the merge buffer afterwards.
			m.iface.Flush()
			if m.iface.Pending() == 0 && m.iface.Idle() {
				return
			}
		}
		if !progressed && !m.skipDisabled {
			m.trySkip()
		}
	}
}

// runTo continues the cycle loop until the machine has retired target
// instructions in total (absolute count, not relative to the current
// position). Because the stop check sits at the top of the loop, stopping
// and later resuming is bit-identical to an uninterrupted run.
func (m *machine) runTo(target uint64) {
	m.stopAt = target
	m.run()
	m.stopAt = 0
}

// trySkip fast-forwards a stalled stretch. After a cycle in which nothing
// drained, retired, issued or dispatched, the machine state is frozen: the
// only thing that can unfreeze it is the passage of cycles reaching a
// bound that is already known — the next scheduled load completion
// (interface calendar), the end of the mispredict refill, or a completion
// time recorded in the ROB gating a retire or a dependent's readiness.
// Jumping the cycle counters straight to the earliest such bound is
// therefore semantically invisible: every skipped cycle would have been a
// pure no-op, and the interface guarantees (NextWork) that its Ticks over
// the skipped range do nothing but advance the cycle. When the bound is
// conservative the landing cycle may stall again, costing only another
// jump; when no bound exists (NoWork) the machine is deadlocked and the
// stall detector in run is left to diagnose it.
func (m *machine) trySkip() {
	next := m.iface.NextWork(m.cycle)
	if t := m.nextCoreWork(); t < next {
		next = t
	}
	if next <= m.cycle+1 || next >= core.NoWork {
		return
	}
	m.skippedCycles += uint64(next - 1 - m.cycle)
	m.skipJumps++
	// Land one cycle short: the loop increments both counters into the
	// target cycle, so Tick drains the calendar slot exactly as the plain
	// loop would have.
	m.cycle = next - 1
	m.iface.System().SkipTo(m.cycle)
}

// nextCoreWork returns the earliest future cycle at which the core side can
// make progress on its own: the mispredict refill expiring, or a concrete
// completion time already recorded in the ROB (an issued op's done cycle
// gates both its in-order retirement and the readiness of its dependents).
// In-flight loads have unknown completion times and contribute no bound —
// they are gated on the interface calendar instead.
//
// Under the wakeup scheduler the ROB contributes nothing beyond the refill
// deadline, so no scan is needed at all. Every completion time the core
// records is at most one cycle ahead when recorded (ops and stores complete
// at issue+1, loads complete at the current cycle), and nextCoreWork only
// runs on a stalled cycle — a cycle in which nothing issued or completed —
// so by then every known done or ready time is <= cycle+1, and trySkip
// ignores bounds that near. The mispredict refill is the sole multi-cycle
// core-side deadline. The scan below serves the scan issue path, the
// oracle the package tests compare the wakeup scheduler against.
func (m *machine) nextCoreWork() int64 {
	next := core.NoWork
	if m.redirectSeq != 0 {
		if m.redirectUntil != 0 {
			if m.redirectUntil > m.cycle && m.redirectUntil < next {
				next = m.redirectUntil
			}
		} else if done := m.doneAt[m.redirectSeq%doneWindow]; done < unknownDone {
			// Not resolved from dispatch's point of view yet; the refill
			// window is done+frontendRefill regardless of which cycle
			// first observes the resolution, so bound there directly.
			if t := done + frontendRefill; t > m.cycle && t < next {
				next = t
			}
		}
	}
	if m.wake {
		return next
	}
	for i := 0; i < m.robLen; i++ {
		in := m.robAt(i)
		if in.issued {
			if in.done > m.cycle && in.done < unknownDone && in.done < next {
				next = in.done
			}
			continue
		}
		// Unissued: becomes ready when its last producer completes.
		ready := int64(0)
		unknown := false
		if d := uint64(in.rec.Dep1); d != 0 && d <= in.seq {
			if v := m.doneAt[(in.seq-d)%doneWindow]; v >= unknownDone {
				unknown = true
			} else if v > ready {
				ready = v
			}
		}
		if d := uint64(in.rec.Dep2); d != 0 && d <= in.seq {
			if v := m.doneAt[(in.seq-d)%doneWindow]; v >= unknownDone {
				unknown = true
			} else if v > ready {
				ready = v
			}
		}
		if !unknown && ready > m.cycle && ready < next {
			next = ready
		}
	}
	return next
}

// stateDump renders the stalled machine state for deadlock diagnostics.
func (m *machine) stateDump() string {
	head := "empty"
	if m.robLen > 0 {
		in := m.robAt(0)
		head = fmt.Sprintf("seq=%d kind=%v issued=%v done=%d ready=%v",
			in.seq, in.rec.Kind, in.issued, in.done, m.ready(in))
	}
	return fmt.Sprintf(
		"rob=%d head={%s} lq=%d pendingLoads=%d srcDone=%v idle=%v instrs=%d",
		m.robLen, head, m.lq.Len(), m.iface.Pending(), m.srcDone,
		m.iface.Idle(), m.instructions)
}

// complete marks a load's result available. In-flight sequence numbers are
// contiguous (dispatch assigns them in order, retire pops in order), so the
// instruction is located by direct indexing instead of a ROB scan.
func (m *machine) complete(seq uint64) {
	m.doneAt[seq%doneWindow] = m.cycle
	if m.robLen > 0 {
		if headSeq := m.robAt(0).seq; seq >= headSeq && seq-headSeq < uint64(m.robLen) {
			in := m.robAt(int(seq - headSeq))
			if in.seq != seq {
				panic("cpu: ROB sequence numbers not contiguous")
			}
			in.done = m.cycle
			if m.wake {
				m.wakeSlot((seq-1)&m.robMask, m.cycle)
			}
		}
	}
	m.lq.Release()
}

// wakeSlot drains the producer slot's wakeup list, folding completion time
// t into each registered dependent's ready time; dependents whose last
// unknown producer this was enter the ready mask.
func (m *machine) wakeSlot(slot uint64, t int64) {
	for j := m.wakeHead[slot]; j >= 0; j = m.wakeNext[j] {
		c := uint64(j) >> 1
		if t > m.readyAt[c] {
			m.readyAt[c] = t
		}
		if m.pendingDeps[c]--; m.pendingDeps[c] == 0 {
			m.readyMask[c>>6] |= 1 << (c & 63)
		}
	}
	m.wakeHead[slot] = -1
}

// retire commits finished instructions in order, up to CommitWidth. It
// returns the number of instructions retired.
func (m *machine) retire() int {
	n := 0
	for m.robLen > 0 && n < m.cfg.CommitWidth {
		head := m.robAt(0)
		if !head.issued || head.done > m.cycle {
			return n
		}
		if head.rec.Kind == trace.Store {
			m.iface.CommitStore(head.seq)
		}
		m.robHead = (m.robHead + 1) & m.robMask
		m.robLen--
		m.retired++
		if m.issueHint > 0 {
			m.issueHint--
		}
		n++
	}
	return n
}

// ready reports whether an instruction's producers have completed. It is
// the hottest leaf of the reference issue scan, so the two dependency
// checks are unrolled.
func (m *machine) ready(in *instr) bool {
	if d := uint64(in.rec.Dep1); d != 0 && d <= in.seq &&
		m.doneAt[(in.seq-d)%doneWindow] > m.cycle {
		return false
	}
	if d := uint64(in.rec.Dep2); d != 0 && d <= in.seq &&
		m.doneAt[(in.seq-d)%doneWindow] > m.cycle {
		return false
	}
	return true
}

// issue selects up to IssueWidth ready instructions, oldest first. Memory
// operations additionally require the L1 interface to accept them (address
// computation unit and buffer availability). Stores issue in program order
// among themselves: store-buffer entries are allocated oldest-first, which
// (as in real store queues) makes SB-full stalls deadlock-free.
func (m *machine) issue() int {
	if m.wake {
		return m.issueWake()
	}
	return m.issueScan()
}

// issueWake is the wakeup-scheduler issue path: it walks the ready mask
// from the ROB head in age order, visiting only instructions whose
// producers have all completed, so a full-ROB stall costs a few word scans
// instead of touching every in-flight entry. Decisions — age order, issue
// width, TryIssue arbitration, store ordering — match issueScan exactly
// (differentially tested).
func (m *machine) issueWake() int {
	issued := 0
	head := int(m.robHead)
	if m.issueReadyRange(head, len(m.rob), &issued) {
		m.issueReadyRange(0, head, &issued)
	}
	return issued
}

// issueReadyRange issues ready instructions whose slots fall in [from, to),
// in slot order; it reports false once the issue width is exhausted.
func (m *machine) issueReadyRange(from, to int, issued *int) bool {
	for w := from >> 6; w <= (to-1)>>6; w++ {
		word := m.readyMask[w]
		if lo := from - w<<6; lo > 0 {
			word &= ^uint64(0) << lo
		}
		if hi := to - w<<6; hi < 64 {
			word &= 1<<uint(hi) - 1
		}
		for word != 0 {
			if *issued >= m.cfg.IssueWidth {
				return false
			}
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			slot := uint64(w<<6 + b)
			if m.readyAt[slot] > m.cycle {
				continue // ready next cycle, not this one
			}
			if m.tryIssueSlot(slot) {
				*issued++
				// An issued store may have released the next store, a
				// younger slot that can still issue this cycle.
				word |= m.readyMask[w] &^ (1<<(b+1) - 1)
				if hi := to - w<<6; hi < 64 {
					word &= 1<<uint(hi) - 1
				}
			}
		}
	}
	return true
}

// tryIssueSlot attempts to issue the ready instruction at slot, reporting
// whether it consumed an issue slot.
func (m *machine) tryIssueSlot(slot uint64) bool {
	in := &m.rob[slot]
	switch in.rec.Kind {
	case trace.Op, trace.Branch:
		in.issued = true
		in.done = m.cycle + 1
		m.doneAt[in.seq%doneWindow] = in.done
		m.readyMask[slot>>6] &^= 1 << (slot & 63)
		m.wakeSlot(slot, in.done)
		return true
	case trace.Load:
		if !m.iface.TryIssue(core.Request{Seq: in.seq, Kind: mem.Load,
			VA: in.rec.Addr, Size: in.rec.Size}) {
			return false
		}
		in.issued = true
		in.done = unknownDone
		m.doneAt[in.seq%doneWindow] = unknownDone
		m.readyMask[slot>>6] &^= 1 << (slot & 63)
		return true // dependents wake when the load completes
	case trace.Store:
		if !m.iface.TryIssue(core.Request{Seq: in.seq, Kind: mem.Store,
			VA: in.rec.Addr, Size: in.rec.Size}) {
			return false
		}
		m.storeQHead++
		if m.storeQHead != m.storeQTail {
			// Release the next store's order dependency.
			next := (m.storeSeqs[m.storeQHead&m.robMask] - 1) & m.robMask
			if m.pendingDeps[next]--; m.pendingDeps[next] == 0 {
				m.readyMask[next>>6] |= 1 << (next & 63)
			}
		}
		in.issued = true
		in.done = m.cycle + 1
		m.doneAt[in.seq%doneWindow] = in.done
		m.readyMask[slot>>6] &^= 1 << (slot & 63)
		m.wakeSlot(slot, in.done)
		return true
	}
	return false
}

// issueScan is the reference issue path, run only by the package tests
// (machine.wake cleared): a full scan over the unissued ROB suffix with
// per-entry readiness checks, the differential oracle for the wakeup
// scheduler.
func (m *machine) issueScan() int {
	issued := 0
	storeBlocked := false
	for m.issueHint < m.robLen && m.robAt(m.issueHint).issued {
		m.issueHint++
	}
	for i := m.issueHint; i < m.robLen; i++ {
		if issued >= m.cfg.IssueWidth {
			return issued
		}
		in := m.robAt(i)
		if in.issued || !m.ready(in) {
			if !in.issued && in.rec.Kind == trace.Store {
				storeBlocked = true
			}
			continue
		}
		switch in.rec.Kind {
		case trace.Op, trace.Branch:
			in.issued = true
			in.done = m.cycle + 1
			m.doneAt[in.seq%doneWindow] = in.done
			issued++
		case trace.Load:
			if !m.iface.TryIssue(core.Request{Seq: in.seq, Kind: mem.Load,
				VA: in.rec.Addr, Size: in.rec.Size}) {
				continue
			}
			in.issued = true
			in.done = unknownDone
			m.doneAt[in.seq%doneWindow] = unknownDone
			issued++
		case trace.Store:
			if storeBlocked {
				continue // an older store has not issued yet
			}
			if !m.iface.TryIssue(core.Request{Seq: in.seq, Kind: mem.Store,
				VA: in.rec.Addr, Size: in.rec.Size}) {
				storeBlocked = true
				continue
			}
			in.issued = true
			in.done = m.cycle + 1
			m.doneAt[in.seq%doneWindow] = in.done
			issued++
		}
	}
	return issued
}

// dispatch fills the ROB from the trace, up to FetchWidth per cycle. Loads
// require a load queue slot; a mispredicted branch blocks dispatch until it
// resolves plus the refill penalty.
func (m *machine) dispatch() {
	if m.srcDone {
		return
	}
	if m.redirectSeq != 0 {
		done := m.doneAt[m.redirectSeq%doneWindow]
		if done > m.cycle {
			return // branch not resolved yet
		}
		if m.redirectUntil == 0 {
			m.redirectUntil = done + frontendRefill
		}
		if m.cycle < m.redirectUntil {
			return // refilling the front end
		}
		m.redirectSeq, m.redirectUntil = 0, 0
	}
	for n := 0; n < m.cfg.FetchWidth && m.robLen < m.cfg.ROB; n++ {
		if len(m.chunk) == 0 {
			m.chunk = m.src.Next(sourceChunk)
			if len(m.chunk) == 0 {
				m.srcDone = true
				return
			}
		}
		rec := &m.chunk[0]
		if rec.Kind == trace.Load && !m.lq.TryAlloc() {
			return // LQ full: stall dispatch, retrying this record next cycle
		}
		m.chunk = m.chunk[1:]
		m.seq++
		// Dependencies reaching past the trace start (d > seq) are
		// ignored pre-history; in-range ones past depLimit would alias a
		// younger instruction's doneAt slot, so fail loudly instead of
		// corrupting completion times.
		if d := uint64(rec.Dep1); d <= m.seq && d > m.depLimit {
			panic(fmt.Sprintf("cpu: dependency distance %d exceeds the completion window (max %d for ROB=%d)", d, m.depLimit, m.cfg.ROB))
		}
		if d := uint64(rec.Dep2); d <= m.seq && d > m.depLimit {
			panic(fmt.Sprintf("cpu: dependency distance %d exceeds the completion window (max %d for ROB=%d)", d, m.depLimit, m.cfg.ROB))
		}
		*m.robAt(m.robLen) = instr{rec: *rec, seq: m.seq, done: unknownDone}
		m.robLen++
		m.doneAt[m.seq%doneWindow] = unknownDone
		if m.wake {
			m.enqueueWake(rec)
		}
		m.instructions++
		switch rec.Kind {
		case trace.Load:
			m.loads++
		case trace.Store:
			m.stores++
		case trace.Branch:
			if rec.Mispredict {
				// Wrong-path work is not simulated; the stall spans
				// resolution plus refill.
				m.redirectSeq = m.seq
				m.redirectUntil = 0
				return
			}
		}
	}
}

// enqueueWake resolves the just-dispatched instruction's producers for the
// wakeup scheduler. Known completion times fold into its ready time;
// unknown ones (unissued producers or in-flight loads, which are
// necessarily still in the ROB) register it on their wakeup lists. Slots
// are assigned in sequence order, so the slot of sequence s is always
// (s-1) & robMask, for producers and consumers alike.
func (m *machine) enqueueWake(rec *trace.Record) {
	seq := m.seq
	slot := (seq - 1) & m.robMask
	if m.wakeHead[slot] >= 0 {
		panic("cpu: reused ROB slot has a non-empty wakeup list")
	}
	pending := uint8(0)
	ready := int64(0)
	if d := uint64(rec.Dep1); d != 0 && d <= seq {
		p := seq - d
		if v := m.doneAt[p%doneWindow]; v >= unknownDone {
			pslot := (p - 1) & m.robMask
			node := int32(slot << 1)
			m.wakeNext[node] = m.wakeHead[pslot]
			m.wakeHead[pslot] = node
			pending++
		} else if v > ready {
			ready = v
		}
	}
	if d := uint64(rec.Dep2); d != 0 && d <= seq {
		p := seq - d
		if v := m.doneAt[p%doneWindow]; v >= unknownDone {
			pslot := (p - 1) & m.robMask
			node := int32(slot<<1 | 1)
			m.wakeNext[node] = m.wakeHead[pslot]
			m.wakeHead[pslot] = node
			pending++
		} else if v > ready {
			ready = v
		}
	}
	if rec.Kind == trace.Store {
		if m.storeQHead != m.storeQTail {
			pending++ // behind an unissued store
		}
		m.storeSeqs[m.storeQTail&m.robMask] = seq
		m.storeQTail++
	}
	m.pendingDeps[slot] = pending
	m.readyAt[slot] = ready
	if pending == 0 {
		m.readyMask[slot>>6] |= 1 << (slot & 63)
	}
}

// result gathers final statistics.
func (m *machine) result(benchmark string) Result {
	sys := m.iface.System()
	known, total := sys.Det.Coverage()
	tel := stats.NewCounters()
	tel.Add(stats.CtrSkippedCycles, m.skippedCycles)
	tel.Add(stats.CtrSkipJumps, m.skipJumps)
	// The result owns its counters: a reused machine's next run resets
	// the interface's.
	ctr := stats.NewCounters()
	ctr.Merge(m.iface.Counters())
	return Result{
		Telemetry:     tel,
		Config:        m.cfg.Name,
		Benchmark:     benchmark,
		Cycles:        uint64(m.cycle),
		Instructions:  m.instructions,
		Loads:         m.loads,
		Stores:        m.stores,
		Energy:        m.iface.Meter().Finish(uint64(m.cycle)),
		L1:            sys.L1.Stats(),
		L2:            sys.Back.L2.Stats(),
		UTLB:          sys.Hier.U.Stats(),
		TLB:           sys.Hier.Main.Stats(),
		CoverageKnown: known,
		CoverageTotal: total,
		Counters:      ctr,
	}
}

// RunBenchmark generates a fresh trace for the named benchmark profile and
// simulates it on cfg. instructions bounds the trace length; seed
// determines the workload (the same seed yields the same trace for every
// configuration, which the cross-config comparisons rely on).
func RunBenchmark(cfg config.Config, benchmark string, instructions int, seed uint64) Result {
	prof, ok := trace.Profiles[benchmark]
	if !ok {
		panic(fmt.Sprintf("cpu: unknown benchmark %q", benchmark))
	}
	gen := trace.NewGenerator(prof, seed)
	return Run(cfg, benchmark, &GenSource{Gen: gen, N: instructions})
}
