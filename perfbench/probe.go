package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/trace"
)

// The layer probes time calls into the public functions of internal/trace,
// internal/cpu, internal/engine and internal/server on a workload's own
// inputs, one call at a time. A layer's self time is its outer call minus
// the separately timed inner call on the same input.

// exactProbeRecords caps the exact cpu probe on sampled workloads, whose
// points are too long to run exactly in a probe.
const exactProbeRecords = 200_000

// memCheckpoints is the benchmark's own checkpoint store for the sampled
// cpu probes: a map, with no persistence.
type memCheckpoints map[uint64]*cpu.Checkpoint

func (m memCheckpoints) Load(n uint64) (*cpu.Checkpoint, bool) { ck, ok := m[n]; return ck, ok }
func (m memCheckpoints) Save(n uint64, ck *cpu.Checkpoint)     { m[n] = ck }

// keySink keeps the probed KeyFor calls from being optimised away.
var keySink engine.Key

// probes accumulates the layer probes of one traced run.
type probes struct {
	r *run

	genTime time.Duration // trace.Generator.Generate
	genRecs int

	exactTime   time.Duration // cpu.RunContext, exact
	exactInstr  uint64
	exactRuns   int
	exactAllocs uint64
	skipSum     float64

	coldTime, warmTime   time.Duration // cpu.RunWithCheckpointsContext, sampled
	coldInstr, warmInstr uint64
	sampleErr            float64

	// Self times along the engine's miss path, summed over points.
	traceSelf, cpuSelf, engineSelf time.Duration
	points                         int

	// Server probe means over its requests.
	rtt, handler, hit, key time.Duration
	respBytes              float64
}

// timed is a probe call's span. Garbage is collected first, so no probe
// pays for collecting an earlier call's garbage.
func (pr *probes) timed(name, point string, parent int, fn func() error) (int, time.Duration, error) {
	runtime.GC()
	return pr.r.tr.timed(name, point, parent, fn)
}

// pointTimes are one replay pass's timings of one point: the engine call,
// the trace generation it performed (zero on a trace-cache hit) and the
// cpu call.
type pointTimes struct{ engine, trace, cpu time.Duration }

// replayPasses is how many times replayBest replays every point.
const replayPasses = 2

// replayBest replays the points replayPasses times and takes, per point and
// layer, the fastest pass, so host noise does not turn a thin layer's self
// time (a difference of two large ones) negative. Engine self time is the
// engine call minus the trace generation and the cpu call on the same
// input. It returns the last pass's engine, with every point resident.
func (pr *probes) replayBest(pts []point, want map[string]uint64) (*engine.Engine, error) {
	var (
		best []pointTimes
		eng  *engine.Engine
	)
	for k := 0; k < replayPasses; k++ {
		times, e, err := pr.replay(pts, want)
		if err != nil {
			return nil, err
		}
		eng = e
		if best == nil {
			best = times
			continue
		}
		for i, t := range times {
			best[i] = pointTimes{min(best[i].engine, t.engine), min(best[i].trace, t.trace), min(best[i].cpu, t.cpu)}
		}
	}
	for _, t := range best {
		pr.traceSelf += t.trace
		pr.cpuSelf += t.cpu
		pr.engineSelf += t.engine - t.trace - t.cpu
	}
	pr.points = len(best)
	return eng, nil
}

// replay runs each point cold through a fresh engine, in the campaign's
// feed order, then times the trace and cpu calls on the same input. want
// holds the expected cycles per point.
func (pr *probes) replay(pts []point, want map[string]uint64) ([]pointTimes, *engine.Engine, error) {
	r := pr.r
	dir, err := r.scratch("probe")
	if err != nil {
		return nil, nil, err
	}
	eng := engine.New(engine.Options{CacheDir: dir})
	var (
		recs     []trace.Record
		recsFor  string
		genTime  time.Duration
		ckStores = map[string]memCheckpoints{}
	)
	times := make([]pointTimes, len(pts))
	for i, p := range pts {
		before := eng.Stats()
		var res cpu.Result
		eid, ed, err := pr.timed("engine.run", p.id(), 0, func() error {
			var err error
			res, _, err = eng.RunContext(r.ctx, p.cfg, p.bench, p.n, p.seed)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("engine probe %s: %w", p.id(), err)
		}
		if c, ok := want[p.id()]; !ok || c != res.Cycles {
			r.fail("engine probe %s: %d cycles, campaign %d", p.id(), res.Cycles, c)
		}
		times[i].engine = ed
		workload := fmt.Sprintf("%s/%d", p.bench, p.seed)
		if workload != recsFor {
			_, genTime, _ = pr.timed("trace.gen", p.id(), eid, func() error {
				recs = trace.NewGenerator(trace.Profiles[p.bench], p.seed).Generate(p.n)
				return nil
			})
			recsFor = workload
			pr.genTime += genTime
			pr.genRecs += p.n
			if p.cfg.Sampling == nil {
				if err := pr.sampledProbe(p, recs, eid); err != nil {
					return nil, nil, err
				}
			}
		}
		if eng.Stats().TraceMisses > before.TraceMisses {
			times[i].trace = genTime
		}

		var cd time.Duration
		if p.cfg.Sampling == nil {
			res2, d, err := pr.exact(p, recs, eid)
			if err != nil {
				return nil, nil, err
			}
			if res2.Cycles != res.Cycles {
				r.fail("cpu probe %s: %d cycles, engine %d", p.id(), res2.Cycles, res.Cycles)
			}
			cd = d
		} else {
			key := engine.MemSideDigest(p.cfg) + "/" + workload
			st, warm := ckStores[key]
			if !warm {
				st = memCheckpoints{}
				ckStores[key] = st
			}
			var res2 cpu.Result
			_, d, err := pr.timed("cpu.sampled", p.id(), eid, func() error {
				var err error
				res2, err = cpu.RunWithCheckpointsContext(r.ctx, p.cfg, p.bench, &cpu.SliceSource{Records: recs}, st)
				return err
			})
			if err != nil {
				return nil, nil, fmt.Errorf("cpu probe %s: %w", p.id(), err)
			}
			if res2.Cycles != res.Cycles {
				r.fail("cpu probe %s: %d cycles, engine %d", p.id(), res2.Cycles, res.Cycles)
			}
			if warm {
				pr.warmTime += d
				pr.warmInstr += res2.Instructions
			} else {
				pr.coldTime += d
				pr.coldInstr += res2.Instructions
			}
			cd = d
			// The sampled workload runs no exact point; probe the exact
			// path on a prefix of the same trace, off the engine's path.
			exact := p
			exact.cfg.Sampling = nil
			if _, _, err := pr.exact(exact, recs[:min(len(recs), exactProbeRecords)], eid); err != nil {
				return nil, nil, err
			}
		}
		times[i].cpu = cd
	}
	return times, eng, nil
}

// exact times one exact cpu.RunContext over recs and counts its
// allocations and skip rate.
func (pr *probes) exact(p point, recs []trace.Record, parent int) (cpu.Result, time.Duration, error) {
	var res cpu.Result
	m0 := mallocs()
	_, d, err := pr.timed("cpu.exact", p.id(), parent, func() error {
		var err error
		res, err = cpu.RunContext(pr.r.ctx, p.cfg, p.bench, &cpu.SliceSource{Records: recs})
		return err
	})
	if err != nil {
		return res, d, fmt.Errorf("cpu probe %s: %w", p.id(), err)
	}
	pr.exactAllocs += mallocs() - m0
	pr.exactTime += d
	pr.exactInstr += res.Instructions
	pr.exactRuns++
	pr.skipSum += res.SkipRate()
	return res, d, nil
}

// sampledProbe measures the sampled path for an exact workload, off its
// engine path: MALEC with the default schedule over one sampling interval
// of the point's trace, first with an empty checkpoint store, then with the
// store it filled, and its cycle error against an exact run of the same
// records.
func (pr *probes) sampledProbe(p point, recs []trace.Record, parent int) error {
	cfg := config.MALEC()
	cfg.Sampling = config.DefaultSampling()
	if len(recs) < cfg.Sampling.Interval {
		recs = trace.NewGenerator(trace.Profiles[p.bench], p.seed).Generate(cfg.Sampling.Interval)
	}
	st := memCheckpoints{}
	sampled := func() (cpu.Result, time.Duration, error) {
		var res cpu.Result
		_, d, err := pr.timed("cpu.sampled", p.id(), parent, func() error {
			var err error
			res, err = cpu.RunWithCheckpointsContext(pr.r.ctx, cfg, p.bench, &cpu.SliceSource{Records: recs}, st)
			return err
		})
		if err != nil {
			err = fmt.Errorf("sampled probe %s: %w", p.id(), err)
		}
		return res, d, err
	}
	cold, d, err := sampled()
	if err != nil {
		return err
	}
	pr.coldTime += d
	pr.coldInstr += cold.Instructions
	warm, d, err := sampled()
	if err != nil {
		return err
	}
	pr.warmTime += d
	pr.warmInstr += warm.Instructions
	if warm.Cycles != cold.Cycles {
		pr.r.fail("sampled probe %s: warm %d cycles, cold %d", p.id(), warm.Cycles, cold.Cycles)
	}
	cfg.Sampling = nil
	exact, err := cpu.RunContext(pr.r.ctx, cfg, p.bench, &cpu.SliceSource{Records: recs})
	if err != nil {
		return fmt.Errorf("sampled probe %s: %w", p.id(), err)
	}
	pr.sampleErr = math.Max(pr.sampleErr, math.Abs(float64(cold.Cycles)-float64(exact.Cycles))/float64(exact.Cycles)*100)
	return nil
}

// serverProbe times, for each request index in seq, the HTTP round trip,
// the handler called directly, the engine lookup and KeyFor, all on the
// same point, which must be resident in s's engine.
func (pr *probes) serverProbe(s *serveState, pts []point, bods [][]byte, seq []int) error {
	r, tr := pr.r, pr.r.tr
	var rtt, handler, hit, key time.Duration
	total := 0
	for _, i := range seq {
		p := pts[i]
		var (
			status int
			body   []byte
		)
		rid, d, err := tr.timed("server.rtt", p.id(), 0, func() error {
			var err error
			status, body, err = s.post(bods[i])
			return err
		})
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("server probe %s: status %d, %v", p.id(), status, err)
		}
		rtt += d
		total += len(body)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bods[i]))
		hid, d, _ := tr.timed("server.handler", p.id(), rid, func() error {
			s.handler.ServeHTTP(rec, req)
			return nil
		})
		handler += d
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
			r.fail("server probe %s: handler reply differs from the HTTP reply", p.id())
		}
		_, d, err = tr.timed("engine.hit", p.id(), hid, func() error {
			_, src, err := s.eng.RunContext(r.ctx, p.cfg, p.bench, p.n, p.seed)
			if err == nil && src != engine.SourceMemory {
				err = fmt.Errorf("served from %s, not memory", src)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("engine hit probe %s: %w", p.id(), err)
		}
		hit += d
		_, d, _ = tr.timed("engine.key", p.id(), hid, func() error {
			keySink = engine.KeyFor(p.cfg, p.bench, p.n, p.seed)
			return nil
		})
		key += d
	}
	n := time.Duration(len(seq))
	pr.rtt, pr.handler, pr.hit, pr.key = rtt/n, handler/n, hit/n, key/n
	pr.respBytes = float64(total) / float64(len(seq))
	return nil
}

// report emits the per-layer metrics every traced run shares.
func (pr *probes) report(st engine.Stats, export time.Duration, overhead float64) {
	r := pr.r
	perInstr := func(d time.Duration, n uint64) float64 { return float64(d) / float64(max(n, 1)) }
	r.metric("trace.gen_ns_per_rec", "ns", float64(pr.genTime)/float64(max(pr.genRecs, 1)))
	r.metric("trace.cache_hit_ratio", "ratio", float64(st.TraceHits)/float64(max(st.TraceHits+st.TraceMisses, 1)))
	r.metric("cpu.exact_ns_per_instr", "ns", perInstr(pr.exactTime, pr.exactInstr))
	r.metric("cpu.skip_rate", "ratio", pr.skipSum/float64(max(pr.exactRuns, 1)))
	r.metric("cpu.allocs_per_run", "count", float64(pr.exactAllocs)/float64(max(pr.exactRuns, 1)))
	r.metric("cpu.sampled_cold_ns_per_instr", "ns", perInstr(pr.coldTime, pr.coldInstr))
	r.metric("cpu.sampled_warm_ns_per_instr", "ns", perInstr(pr.warmTime, pr.warmInstr))
	r.metric("sample_err_pct", "%", pr.sampleErr)
	r.metric("engine.key_us", "us", float64(pr.key)/1e3)
	r.metric("engine.hit_us", "us", float64(pr.hit)/1e3)
	r.metric("engine.miss_overhead_ms", "ms", float64(pr.engineSelf)/float64(max(pr.points, 1))/1e6)
	r.metric("engine.export_ms", "ms", float64(export)/1e6)
	r.metric("engine.ckpt_hits", "count", float64(st.CheckpointHits))
	r.metric("engine.ckpt_misses", "count", float64(st.CheckpointMisses))
	r.metric("engine.ckpt_bytes_written", "bytes", float64(st.CheckpointBytesWritten))
	r.metric("server.self_us", "us", float64(pr.rtt-pr.hit)/1e3)
	r.metric("server.resp_bytes", "bytes", pr.respBytes)
	r.metric("tracing_overhead_pct", "%", overhead*100)
	info("tracing overhead %+.2f%% (traced end-to-end run against the untraced one)", overhead*100)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer string
	self  time.Duration
	note  string
}

// table prints each layer's self time and share of the untraced end-to-end
// time, and reports the remainder no layer accounts for as a finding. The
// rows trace, cpu, engine and server also become <layer>.self_pct metrics.
func (pr *probes) table(what string, e2e time.Duration, rows []layerRow) {
	r := pr.r
	pct := func(d time.Duration) float64 { return float64(d) / float64(e2e) * 100 }
	info("per-layer self time, %s: end-to-end %v", what, e2e)
	var sum time.Duration
	for _, row := range rows {
		info("  %-10s %14v %7.2f%%  %s", row.layer, row.self, pct(row.self), row.note)
		sum += row.self
		switch row.layer {
		case "trace", "cpu", "engine", "server":
			r.metric(row.layer+".self_pct", "%", pct(row.self))
		}
	}
	rem := e2e - sum
	info("  %-10s %14v %7.2f%%  finding: time no layer probe accounts for", "remainder", rem, pct(rem))
	r.metric("unexplained_pct", "%", pct(rem))
}

// traced is a campaign workload's traced run. The end-to-end reference is
// one cold serial campaign (one worker, so layer self times add up to it),
// run untraced and traced with a span per completed point, alternating,
// twice; the layer probes then replay the same points.
func (c *campaignWorkload) traced(r *run) error {
	ref, err := c.subset(r.seed)
	if err != nil {
		return err
	}
	if err := c.warm(r); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	spec := c.spec(ref.Seeds, c.instructions)
	var u, t *roundResult // the faster untraced and traced rounds
	for k := 0; k < 2; k++ {
		ur, err := c.round(r, spec, nil)
		if err != nil {
			return err
		}
		root := r.tr.open("engine.campaign", "", 0)
		prev := time.Now()
		tr, err := c.round(r, spec, func(done, total int, job engine.Job) {
			now := time.Now()
			r.tr.add("engine.point", pointID(job.ConfigName, job.Benchmark, job.Seed), root, prev, now)
			prev = now
		})
		r.tr.close(root)
		if err != nil {
			return err
		}
		for _, rr := range []*roundResult{ur, tr} {
			r.rep.Attempted += len(rr.camp.Results)
			if err := checkCSV(rr.csv, ref.CSVSHA256); err != nil {
				r.rep.Failed += len(rr.camp.Results)
				r.fail("%v", err)
			}
		}
		if u == nil || ur.elapsed < u.elapsed {
			u = ur
		}
		if t == nil || tr.elapsed < t.elapsed {
			t = tr
		}
	}

	pr := &probes{r: r}
	want := map[string]uint64{}
	for _, jr := range u.camp.Results {
		want[pointID(jr.ConfigName, jr.Benchmark, jr.Seed)] = jr.Result.Cycles
	}
	pts := grid(spec.Configs, spec.Benchmarks, spec.Seeds, spec.Instructions)
	eng, err := pr.replayBest(pts, want)
	if err != nil {
		return err
	}
	_, export, err := r.tr.timed("engine.export", "", 0, func() error {
		if _, err := u.camp.CSV(); err != nil {
			return err
		}
		_, err := u.camp.JSON()
		return err
	})
	if err != nil {
		return err
	}
	if c.sampled {
		if pr.sampleErr, err = sampleErrPct(u.camp, ref.ExactCycles); err != nil {
			r.fail("%v", err)
		}
	}
	s, err := startServer(eng)
	if err != nil {
		return err
	}
	defer s.close()
	bods, err := bodies(pts)
	if err != nil {
		return err
	}
	var seq []int
	for k := 0; k < 20; k++ {
		for i := range pts {
			seq = append(seq, i)
		}
	}
	if err := pr.serverProbe(s, pts, bods, seq); err != nil {
		return err
	}
	pr.report(u.stats, export, t.elapsed.Seconds()/u.elapsed.Seconds()-1)
	cpuNote := "detailed cycle loop (exact)"
	if c.sampled {
		cpuNote = fmt.Sprintf("functional warming, bursts, checkpoint capture (cold runs %v) and restore (warm runs %v), per pass",
			pr.coldTime/replayPasses, pr.warmTime/replayPasses)
	}
	pr.table(fmt.Sprintf("one cold serial campaign of %d points", len(pts)), u.elapsed, []layerRow{
		{"trace", pr.traceSelf, "Generator.Generate on trace-cache misses"},
		{"cpu", pr.cpuSelf, cpuNote},
		{"engine", pr.engineSelf + export, fmt.Sprintf("miss path self time (result and checkpoint persistence, lookups) plus exports %v", export)},
		{"server", 0, "not on this workload's path"},
	})
	return nil
}

// serveTraced is serve-hit's traced run. The end-to-end reference is the
// mean latency of a single-client closed loop, run untraced and with a
// span per request; the layer probes then split requests from the same
// sequence into client and loopback, server handler, engine lookup and
// KeyFor.
func serveTraced(r *run) error {
	s, err := newServe(r)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	const m = 4000
	seq := requestSequence(r.seed, m, len(s.hot))
	loop := func(traced bool) time.Duration {
		t0 := time.Now()
		for _, i := range seq {
			t := time.Now()
			status, body, err := s.post(s.bodies[i])
			if traced {
				r.tr.add("client.request", s.hot[i].id(), 0, t, time.Now())
			}
			r.rep.Attempted++
			if err != nil || status != http.StatusOK || !bytes.Equal(body, s.want[i]) {
				r.rep.Failed++
				r.fail("request for %s: status %d, %v", s.hot[i].id(), status, err)
			}
		}
		return time.Since(t0) / m
	}
	// Untraced and traced, alternating, twice; the faster of each.
	lu, lt := loop(false), loop(true)
	lu, lt = min(lu, loop(false)), min(lt, loop(true))

	pr := &probes{r: r}
	if err := pr.serverProbe(s, s.hot, s.bodies, seq); err != nil {
		return err
	}
	// Off the hit path: the same probes as the campaign workloads, on the
	// hot set's own points.
	camp, err := s.eng.RunCampaignContext(r.ctx, engine.CampaignSpec{
		Configs: config.Fig4Configs(), Benchmarks: hotBenchmarks,
		Instructions: hotInstructions, Seeds: []uint64{hotSeed(r.seed)},
	})
	if err != nil {
		return err
	}
	want := map[string]uint64{}
	for _, jr := range camp.Results {
		want[pointID(jr.ConfigName, jr.Benchmark, jr.Seed)] = jr.Result.Cycles
	}
	if _, err := pr.replayBest(hotSet(hotSeed(r.seed)), want); err != nil {
		return err
	}
	_, export, err := r.tr.timed("engine.export", "", 0, func() error {
		if _, err := camp.CSV(); err != nil {
			return err
		}
		_, err := camp.JSON()
		return err
	})
	if err != nil {
		return err
	}
	pr.report(s.eng.Stats(), export, lt.Seconds()/lu.Seconds()-1)
	pr.table("mean /v1/run hit latency, one client", lu, []layerRow{
		{"server", pr.rtt - pr.hit - pr.key, fmt.Sprintf("HTTP round trip minus engine lookup; the handler (admission, decode, encode, metrics) takes %v, HTTP transport and client the rest", pr.handler-pr.hit-pr.key)},
		{"engine", pr.hit + pr.key, fmt.Sprintf("lookup: KeyFor twice (%v each), map lookup under the engine lock", pr.key)},
		{"trace", 0, "not on the hit path"},
		{"cpu", 0, "not on the hit path"},
	})
	return nil
}
