package engine

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
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
	// Workers bounds this campaign's concurrent job submissions (default:
	// the engine's worker bound). The engine's own bound still applies to
	// actual simulations.
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

// runJobs executes an arbitrary job list through the engine with bounded
// worker parallelism and bounded per-job retries. onDone is invoked
// exactly once per job — serialized, in completion order — with the
// result (err == nil), the job's final error, or the cancellation error
// for jobs cut off mid-flight; attempts counts the retries the job
// consumed. The feed groups jobs by (benchmark, seed) so every
// configuration sharing one workload runs back to back and the
// materialized-trace cache holds only the traces currently in flight;
// completion order is still nondeterministic, which is why results carry
// their own campaign Index.
func (e *Engine) runJobs(ctx context.Context, jobs []Job, workers, retries int, onDone func(jr JobResult, attempts int, err error)) {
	if retries < 0 {
		retries = 0
	}
	runOne := func(j Job) (jr JobResult, attempts int, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &SimPanicError{Key: j.Key, Value: r}
			}
		}()
		for attempt := 0; ; attempt++ {
			res, src, err := e.RunContext(ctx, j.Config, j.Benchmark, j.Instructions, j.Seed)
			if err == nil {
				return JobResult{Job: j, Source: src, Result: res}, attempt, nil
			}
			if isCancellation(err) {
				return JobResult{Job: j}, attempt, err
			}
			if attempt >= retries {
				return JobResult{Job: j}, attempt, err
			}
			// The engine quarantined the panicked key; forget it so the
			// retry actually re-runs the point instead of failing fast on
			// the cached poison — transient faults (chaos injection, an
			// OOM-killed helper) deserve their second chance, while a
			// deterministic model bug just fails again and exhausts the
			// bound.
			e.ForgetPoisoned(j.Key)
			select {
			case <-time.After(jobBackoff(attempt)):
			case <-ctx.Done():
				return JobResult{Job: j}, attempt, ctx.Err()
			}
		}
	}

	var (
		wg     sync.WaitGroup
		doneMu sync.Mutex
	)
	idx := make(chan int)
	if workers <= 0 {
		workers = cap(e.sem)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				jr, attempts, err := runOne(jobs[i])
				doneMu.Lock()
				onDone(jr, attempts, err)
				doneMu.Unlock()
			}
		}()
	}
	// Feed jobs grouped by (benchmark, seed): every configuration sharing
	// one workload runs back to back, so the trace cache's reuse distance
	// is the config count, not the whole grid. Buckets keep first-seen
	// order (the deterministic expansion order), so full grids feed
	// exactly as before.
	type workload struct {
		bench string
		seed  uint64
	}
	var order []workload
	buckets := make(map[workload][]int)
	for i, j := range jobs {
		w := workload{j.Benchmark, j.Seed}
		if _, ok := buckets[w]; !ok {
			order = append(order, w)
		}
		buckets[w] = append(buckets[w], i)
	}
feed:
	for _, w := range order {
		for _, i := range buckets[w] {
			select {
			case idx <- i:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(idx)
	wg.Wait()
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
