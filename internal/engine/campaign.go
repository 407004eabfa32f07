package engine

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/trace"
)

// CampaignSpec describes a grid of simulation points: every configuration
// crossed with every benchmark and every seed at one instruction count.
type CampaignSpec struct {
	// Configs to simulate. Required.
	Configs []config.Config
	// Benchmarks to simulate (default: all 38).
	Benchmarks []string
	// Instructions per simulation (default 300000).
	Instructions int
	// Seeds selects the workload instances (default: [1]).
	Seeds []uint64
	// Workers bounds this campaign's units in flight (default: the
	// engine's worker bound). A unit, the jobs of one trace, holds one
	// engine worker slot and runs at most two goroutines in it.
	Workers int
	// Retries bounds how many times one job is re-attempted (with
	// exponential backoff) after a transient failure — a contained
	// simulation panic, e.g. an injected fault — before the job is
	// declared failed. 0 disables retries; negative is treated as 0.
	Retries int
	// Progress, if set, is called after each job completes with the
	// number of finished jobs, the total, and the finished job.
	// Invocations are serialized.
	Progress func(done, total int, job Job)
}

// normalize applies spec defaults. It returns an error rather than panic
// for unknown benchmarks so that service callers can reject bad requests.
func (s CampaignSpec) normalize(engineWorkers int) (CampaignSpec, error) {
	if len(s.Configs) == 0 {
		return s, fmt.Errorf("engine: campaign needs at least one config")
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = trace.AllBenchmarks()
	}
	for _, b := range s.Benchmarks {
		if _, ok := trace.Profiles[b]; !ok {
			return s, fmt.Errorf("engine: unknown benchmark %q", b)
		}
	}
	if s.Instructions <= 0 {
		s.Instructions = DefaultInstructions
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	if s.Workers <= 0 {
		s.Workers = engineWorkers
	}
	return s, nil
}

// distinct rejects a spec that lists one configuration (by digest), one
// benchmark or one seed twice, which would expand one key into two jobs.
// Fresh campaigns check it; a replayed journal, accepted before the check,
// runs as it was accepted.
func (s CampaignSpec) distinct() error {
	if i := repeated(s.Configs, ConfigDigest); i >= 0 {
		return fmt.Errorf("engine: config %q is repeated", s.Configs[i].Name)
	}
	if i := repeated(s.Benchmarks, func(b string) string { return b }); i >= 0 {
		return fmt.Errorf("engine: benchmark %q is repeated", s.Benchmarks[i])
	}
	if i := repeated(s.Seeds, func(x uint64) uint64 { return x }); i >= 0 {
		return fmt.Errorf("engine: seed %d is repeated", s.Seeds[i])
	}
	return nil
}

// repeated returns the index of the first element of xs whose key an
// earlier element shares, or -1.
func repeated[T any, K comparable](xs []T, key func(T) K) int {
	seen := make(map[K]bool, len(xs))
	for i, x := range xs {
		if seen[key(x)] {
			return i
		}
		seen[key(x)] = true
	}
	return -1
}

// Job is one expanded simulation point of a campaign.
type Job struct {
	// Index is the job's position in the campaign's deterministic
	// config-major, benchmark-middle, seed-minor expansion order.
	Index        int           `json:"index"`
	Config       config.Config `json:"-"`
	ConfigName   string        `json:"config"`
	Benchmark    string        `json:"benchmark"`
	Instructions int           `json:"instructions"`
	Seed         uint64        `json:"seed"`
	Key          Key           `json:"key"`
}

// JobResult pairs a job with its simulation result and the source it was
// served from. In a durable campaign's export a job that exhausted its
// retries instead carries Error (and a zero Result); synchronous
// RunCampaign never produces error rows — it aborts on the first final
// failure.
type JobResult struct {
	Job
	Source Source     `json:"source,omitempty"`
	Result cpu.Result `json:"result"`
	Error  string     `json:"error,omitempty"`
}

// Campaign holds the results of one campaign run, in expansion order.
type Campaign struct {
	Spec    CampaignSpec `json:"-"`
	Results []JobResult  `json:"results"`
}

// expand lists a spec's jobs in deterministic order.
func (s CampaignSpec) expand() []Job {
	jobs := make([]Job, 0, len(s.Configs)*len(s.Benchmarks)*len(s.Seeds))
	for _, c := range s.Configs {
		for _, b := range s.Benchmarks {
			for _, seed := range s.Seeds {
				jobs = append(jobs, Job{
					Index:        len(jobs),
					Config:       c,
					ConfigName:   c.Name,
					Benchmark:    b,
					Instructions: s.Instructions,
					Seed:         seed,
					Key:          KeyFor(c, b, s.Instructions, seed),
				})
			}
		}
	}
	return jobs
}

// RunCampaign expands the spec into jobs and runs them through the engine
// with bounded parallelism. Each worker writes results into its own
// pre-assigned slice positions, so no lock is held on the result path; the
// output order is the deterministic expansion order regardless of worker
// count or completion order. If any simulation panics, the remaining jobs
// still run and RunCampaign returns a *SimPanicError for the first failed
// one with no campaign.
func (e *Engine) RunCampaign(spec CampaignSpec) (*Campaign, error) {
	return e.RunCampaignContext(context.Background(), spec)
}

// RunCampaignContext is RunCampaign with cancellation: once ctx is
// cancelled, no further jobs are fed, in-flight points stop at their next
// cancellation check, and the context's error is returned. Simulation
// panics are retried up to spec.Retries times per job with exponential
// backoff; a job that exhausts its retries surfaces as *SimPanicError (the
// remaining jobs still run to completion).
func (e *Engine) RunCampaignContext(ctx context.Context, spec CampaignSpec) (*Campaign, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := spec.normalize(cap(e.sem))
	if err == nil {
		err = spec.distinct()
	}
	if err != nil {
		return nil, err
	}
	jobs := spec.expand()
	results := make([]JobResult, len(jobs))
	var (
		done     int
		firstErr error
	)
	e.runJobs(ctx, jobs, spec.Workers, spec.Retries,
		func(jr JobResult, attempts int, err error) {
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			results[jr.Index] = jr
			if spec.Progress != nil {
				done++
				spec.Progress(done, len(jobs), jr.Job)
			}
		})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &Campaign{Spec: spec, Results: results}, nil
}

// Retry backoff bounds: the sleep doubles from backoffBase per attempt
// and saturates at backoffCap.
const (
	backoffBase = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// jobBackoff is the sleep before retry number attempt (0-based): with d
// the capped exponential, it is uniform in [d/2, d]. The jitter keeps
// jobs that failed together from retrying in lockstep, while the d/2
// floor still guarantees real spacing.
func jobBackoff(attempt int) time.Duration {
	d := backoffCap
	// Guard the shift: past 30 doublings the exponential has long since
	// saturated the cap.
	if attempt < 30 {
		if e := backoffBase << attempt; e < backoffCap {
			d = e
		}
	}
	return d/2 + rand.N(d/2+1)
}

// workload is a (benchmark, seed): the trace every job of it reads.
type workload struct {
	bench string
	seed  uint64
}

// feedUnits lists the units runJobs feeds, as job indexes in feed order,
// with each workload's jobs and the workloads' summed arena length.
//
// A unit is a trace: jobs of one workload and instruction count. Units
// are grouped by workload, so every configuration sharing one trace runs
// back to back and the trace cache's reuse distance is the config count,
// not the whole grid. Workloads keep first-seen order (the deterministic
// expansion order), and a unit takes the place of its first job. The
// exact jobs within the trace budget form one unit; one over the budget
// is a unit of one. The sampled jobs that share a schedule form a unit
// over at most cpu.MaxPassSides memory sides; a trace with more memory
// sides is split into units of that many.
func feedUnits(jobs []Job) (units [][]int, buckets map[workload][]int, arena int) {
	type unitKey struct {
		w            workload
		instructions int
		sampling     config.Sampling // zero for exact jobs: no sampled job has it
		part         int             // the trace's memory sides, cpu.MaxPassSides a part
	}
	var order []workload
	buckets = make(map[workload][]int)
	for i, j := range jobs {
		w := workload{j.Benchmark, j.Seed}
		if _, ok := buckets[w]; !ok {
			order = append(order, w)
			arena += j.Instructions
		}
		buckets[w] = append(buckets[w], i)
	}
	at := make(map[unitKey]int)
	sides := make(map[unitKey][]config.MemSide) // a trace's memory sides, at part 0
	for _, w := range order {
		b := buckets[w]
		for k, i := range b {
			j := &jobs[i]
			g := unitKey{w: w, instructions: j.Instructions}
			switch {
			case cpu.Sampled(j.Config, j.Instructions):
				g.sampling = *j.Config.Sampling
				side := slices.Index(sides[g], j.Config.MemSide())
				if side < 0 {
					side = len(sides[g])
					sides[g] = append(sides[g], j.Config.MemSide())
				}
				g.part = side / cpu.MaxPassSides
			case j.Instructions > traceCacheRecords:
				units = append(units, b[k:k+1:k+1])
				continue
			}
			if u, ok := at[g]; ok {
				units[u] = append(units[u], i)
				continue
			}
			at[g] = len(units)
			units = append(units, b[k:k+1:k+1])
		}
	}
	return units, buckets, arena
}

// runJobs executes an arbitrary job list through the engine with bounded
// worker parallelism and bounded per-job retries. onDone is invoked
// exactly once per job — serialized, in completion order — with the
// result (err == nil), the job's final error, or the cancellation error
// for jobs cut off mid-flight; attempts counts the retries the job
// consumed.
//
// The unit of work is a unit of feedUnits. One worker takes a unit whole
// and computes its missing keys in one flight (startPass) that holds one
// worker slot and runs at most two goroutines in it: for sampled jobs, one
// pass that generates the trace once and warms each memory side once,
// side by side; for exact jobs, two lanes that each simulate the unit's
// next configuration over the shared trace arena. So Workers bounds CPUs
// at twice its value. Each job is reported as its key finishes, and a
// retry re-runs the unit's failed keys as a new flight.
//
// The feed groups units by (benchmark, seed) so every configuration
// sharing one workload runs back to back. When the groups' arenas
// together exceed smallCampaignRecords, runJobs drops a group's trace
// arena from the materialized-trace cache as soon as the group's last
// job has finished (and, on return, the arena of any group a
// cancellation cut off after its first job): the cache then holds only
// the arenas of started groups with jobs still to run, the arena of a
// group the campaign never reached stays for its other readers, and the
// next group's generation reuses the dropped arena's storage. A smaller
// job list leaves its arenas to the cache's LRU bound, as a single point
// does. Completion order is still nondeterministic, which is why results
// carry their own campaign Index.
func (e *Engine) runJobs(ctx context.Context, jobs []Job, workers, retries int, onDone func(jr JobResult, attempts int, err error)) {
	if retries < 0 {
		retries = 0
	}
	units, buckets, arena := feedUnits(jobs)
	left := make(map[workload]int, len(buckets))
	for w, b := range buckets {
		left[w] = len(b)
	}
	dropArenas := arena > smallCampaignRecords

	var (
		wg     sync.WaitGroup
		doneMu sync.Mutex
	)
	report := func(jr JobResult, attempts int, err error) {
		doneMu.Lock()
		defer doneMu.Unlock()
		onDone(jr, attempts, err)
		w := workload{jr.Benchmark, jr.Seed}
		if left[w]--; left[w] == 0 && dropArenas {
			e.traces.Drop(w.bench, w.seed)
		}
	}
	// run runs one unit: each attempt starts a flight for the unit's keys
	// still missing and reports each as it finishes. A job the flight left
	// out goes through RunContext first.
	run := func(unit []Job) {
		for attempt := 0; len(unit) > 0; attempt++ {
			e.mu.Lock()
			calls := e.startPass(ctx, unit)
			e.mu.Unlock()
			var failed []Job
			got := func(i int, res cpu.Result, src Source, err error) {
				j := unit[i]
				switch {
				case err == nil:
					report(JobResult{Job: j, Source: src, Result: res}, attempt, nil)
				case isCancellation(err) || attempt >= retries:
					report(JobResult{Job: j}, attempt, err)
				default:
					// The engine quarantined the panicked key; forget it
					// so the retry actually re-runs the point instead of
					// failing fast on the cached poison — transient faults
					// (chaos injection, an OOM-killed helper) deserve
					// their second chance, while a deterministic model bug
					// just fails again and exhausts the bound.
					e.ForgetPoisoned(j.Key)
					failed = append(failed, j)
				}
			}
			for i, j := range unit {
				if calls[i] == nil {
					res, src, err := e.RunContext(ctx, j.Config, j.Benchmark, j.Instructions, j.Seed)
					got(i, res, src, err)
				}
			}
			e.waitFlight(ctx, calls, got)
			if len(failed) == 0 {
				return
			}
			select {
			case <-time.After(jobBackoff(attempt)):
			case <-ctx.Done():
				for _, j := range failed {
					report(JobResult{Job: j}, attempt, ctx.Err())
				}
				return
			}
			unit = failed
		}
	}

	feed := make(chan []int)
	if workers <= 0 {
		workers = cap(e.sem)
	}
	if workers > len(units) {
		workers = len(units)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range feed {
				if len(u) == 1 {
					run(jobs[u[0] : u[0]+1 : u[0]+1])
					continue
				}
				unit := make([]Job, len(u))
				for k, i := range u {
					unit[k] = jobs[i]
				}
				run(unit)
			}
		}()
	}
feedLoop:
	for _, u := range units {
		select {
		case feed <- u:
		case <-ctx.Done():
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()
	if dropArenas {
		// Every fed job has finished, so a group was started exactly
		// when some of its jobs were counted off.
		for w, n := range left {
			if n > 0 && n < len(buckets[w]) {
				e.traces.Drop(w.bench, w.seed)
			}
		}
	}
}

// Result returns the result for (configName, benchmark, seed), if present.
func (c *Campaign) Result(configName, benchmark string, seed uint64) (cpu.Result, bool) {
	for i := range c.Results {
		r := &c.Results[i]
		if r.ConfigName == configName && r.Benchmark == benchmark && r.Seed == seed {
			return r.Result, true
		}
	}
	return cpu.Result{}, false
}

// JSON exports the campaign results as deterministic, indented JSON.
func (c *Campaign) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// csvHeader names the CSV export columns.
var csvHeader = []string{
	"config", "benchmark", "instructions", "seed", "key",
	"cycles", "ipc", "loads", "stores",
	"l1_hits", "l1_misses", "l1_miss_rate",
	"utlb_miss_rate", "tlb_miss_rate", "wt_coverage",
	"energy_dynamic_pj", "energy_leakage_pj", "energy_total_pj",
}

// WriteCSV exports the campaign results as CSV in expansion order. Float
// columns use shortest-round-trip formatting, so equal results export to
// byte-identical files.
func (c *Campaign) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i := range c.Results {
		r := &c.Results[i]
		res := &r.Result
		row := []string{
			r.ConfigName,
			r.Benchmark,
			strconv.Itoa(r.Instructions),
			strconv.FormatUint(r.Seed, 10),
			r.Key.String(),
			strconv.FormatUint(res.Cycles, 10),
			formatFloat(res.IPC()),
			strconv.FormatUint(res.Loads, 10),
			strconv.FormatUint(res.Stores, 10),
			strconv.FormatUint(res.L1.Hits, 10),
			strconv.FormatUint(res.L1.Misses, 10),
			formatFloat(res.L1.MissRate()),
			formatFloat(res.UTLB.MissRate()),
			formatFloat(res.TLB.MissRate()),
			formatFloat(res.Coverage()),
			formatFloat(res.Energy.TotalDynamic()),
			formatFloat(res.Energy.TotalLeakage()),
			formatFloat(res.Energy.Total()),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSV exports the campaign results as a CSV byte slice.
func (c *Campaign) CSV() ([]byte, error) {
	var b bytes.Buffer
	if err := c.WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// formatFloat renders a float with the shortest representation that
// round-trips, 'g' format.
func formatFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
