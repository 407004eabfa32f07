package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"malec/internal/config"
	"malec/internal/engine"
)

// campaignWorkload is a cold config x benchmark x seed campaign run through
// engine.RunCampaignContext on a fresh engine with a fresh cache directory,
// followed by its CSV and JSON exports. Each round repeats the identical
// campaign, so rounds differ only by host noise.
//
// Campaigns run on one worker. With two on a 2-core host, the makespan
// depended on which worker drew the last long points, and configurations
// sharing a memory-side digest ran concurrently and both missed the
// checkpoint store, so rounds of identical work moved by up to 20%.
type campaignWorkload struct {
	name         string
	benchmarks   []string
	instructions int
	sampled      bool
	// seedsPer simulation seeds make up one run's grid; subsets disjoint
	// seed sets are stored in the reference file, and the workload seed
	// picks one of them.
	seedsPer, subsets int
	// roundSeconds is the nominal host time of one round on the reference
	// host; it converts --seconds into a fixed round count.
	roundSeconds float64
	// warmInstructions is the point length of the warm-up pass.
	warmInstructions int
}

var fig4Exact = &campaignWorkload{
	name:             "fig4-exact",
	benchmarks:       []string{"gzip", "mcf", "art", "mpeg2enc", "ptrchase", "tlbthrash"},
	instructions:     200_000,
	seedsPer:         2,
	subsets:          8,
	roundSeconds:     6.6,
	warmInstructions: 50_000,
}

var sweepSampled = &campaignWorkload{
	name:             "sweep-sampled",
	benchmarks:       []string{"gzip", "mcf", "ptrchase"},
	instructions:     5_000_000,
	sampled:          true,
	seedsPer:         1,
	subsets:          4,
	roundSeconds:     7.2,
	warmInstructions: 1_000_000,
}

// seeds returns the simulation seeds of stored subset k.
func (c *campaignWorkload) seeds(k int) []uint64 {
	s := make([]uint64, c.seedsPer)
	for i := range s {
		s[i] = uint64(k*c.seedsPer + i + 1)
	}
	return s
}

// configs returns the five Fig. 4 configurations, sampled when the
// workload is.
func (c *campaignWorkload) configs(sampled bool) []config.Config {
	cfgs := config.Fig4Configs()
	if sampled {
		for i := range cfgs {
			cfgs[i].Sampling = config.DefaultSampling()
		}
	}
	return cfgs
}

func (c *campaignWorkload) spec(seeds []uint64, instructions int) engine.CampaignSpec {
	return engine.CampaignSpec{
		Configs:      c.configs(c.sampled),
		Benchmarks:   c.benchmarks,
		Instructions: instructions,
		Seeds:        seeds,
		Workers:      1,
	}
}

// point is one simulation point of a workload's inputs.
type point struct {
	cfg   config.Config
	bench string
	n     int
	seed  uint64
}

func (p point) id() string { return pointID(p.cfg.Name, p.bench, p.seed) }

// grid lists a grid's points in the order the engine's campaign feed runs
// them: grouped by (benchmark, seed), configurations in order within a
// group.
func grid(cfgs []config.Config, benches []string, seeds []uint64, n int) []point {
	var pts []point
	for _, b := range benches {
		for _, s := range seeds {
			for _, c := range cfgs {
				pts = append(pts, point{cfg: c, bench: b, n: n, seed: s})
			}
		}
	}
	return pts
}

// runBody is a POST /v1/run request body.
type runBody struct {
	Config       string           `json:"config"`
	Benchmark    string           `json:"benchmark"`
	Instructions int              `json:"instructions"`
	Seed         uint64           `json:"seed"`
	Sampling     *config.Sampling `json:"sampling,omitempty"`
}

// bodies returns each point's /v1/run request body.
func bodies(pts []point) ([][]byte, error) {
	out := make([][]byte, len(pts))
	for i, p := range pts {
		b, err := json.Marshal(runBody{Config: p.cfg.Name, Benchmark: p.bench, Instructions: p.n, Seed: p.seed, Sampling: p.cfg.Sampling})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// roundResult is one timed campaign.
type roundResult struct {
	camp    *engine.Campaign
	csv     []byte
	elapsed time.Duration
	instrs  uint64
	stats   engine.Stats
}

// round runs one cold campaign and its exports on a fresh engine over a
// fresh cache directory. progress, when set, is the campaign's progress
// callback.
func (c *campaignWorkload) round(r *run, spec engine.CampaignSpec, progress func(done, total int, job engine.Job)) (*roundResult, error) {
	dir, err := r.scratch("round")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec.Progress = progress
	t0 := time.Now()
	eng := engine.New(engine.Options{CacheDir: dir})
	camp, err := eng.RunCampaignContext(r.ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	csv, err := camp.CSV()
	if err != nil {
		return nil, fmt.Errorf("csv export: %w", err)
	}
	if _, err := camp.JSON(); err != nil {
		return nil, fmt.Errorf("json export: %w", err)
	}
	rr := &roundResult{camp: camp, csv: csv, elapsed: time.Since(t0), stats: eng.Stats()}
	for i := range camp.Results {
		rr.instrs += camp.Results[i].Result.Instructions
	}
	return rr, nil
}

// warm is one set-up repetition: a fresh engine over a fresh cache
// directory runs the workload's grid on the held-out seed at warm-up
// length.
func (c *campaignWorkload) warm(r *run) error {
	dir, err := r.scratch("warm")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng := engine.New(engine.Options{CacheDir: dir})
	_, err = eng.RunCampaignContext(r.ctx, c.spec([]uint64{warmSeed}, c.warmInstructions))
	return err
}

// rounds converts --seconds into this workload's fixed round count.
func (c *campaignWorkload) rounds(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/c.roundSeconds)))
}

// subset returns the stored reference subset the workload seed selects.
func (c *campaignWorkload) subset(seed uint64) (subsetRef, error) {
	k := int(seed % uint64(c.subsets))
	ref, err := loadReference()
	if err != nil {
		return subsetRef{}, err
	}
	subs := ref.Workloads[c.name]
	want := c.seeds(k)
	if k >= len(subs) || subs[k].Instructions != c.instructions || fmt.Sprint(subs[k].Seeds) != fmt.Sprint(want) {
		return subsetRef{}, fmt.Errorf("%s: reference subset %d missing or stale (want seeds %v, %d instructions); regenerate with --regen", c.name, k, want, c.instructions)
	}
	return subs[k], nil
}

// checkCSV compares the SHA-256 of a campaign CSV export with the stored
// digest.
func checkCSV(csv []byte, want string) error {
	if got := sha256Hex(csv); got != want {
		return fmt.Errorf("campaign CSV sha256 %s, stored %s", got, want)
	}
	return nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sampleErrPct is the largest |sampled - exact| / exact cycle error over a
// campaign's points, in percent, against the stored exact cycles.
func sampleErrPct(camp *engine.Campaign, exact map[string]uint64) (float64, error) {
	worst := 0.0
	for i := range camp.Results {
		jr := &camp.Results[i]
		ref, ok := exact[pointID(jr.ConfigName, jr.Benchmark, jr.Seed)]
		if !ok || ref == 0 {
			return 0, fmt.Errorf("no stored exact cycles for %s", pointID(jr.ConfigName, jr.Benchmark, jr.Seed))
		}
		worst = math.Max(worst, math.Abs(float64(jr.Result.Cycles)-float64(ref))/float64(ref)*100)
	}
	return worst, nil
}

func pointID(cfg, bench string, seed uint64) string {
	return fmt.Sprintf("%s/%s/%d", cfg, bench, seed)
}

// e2e is the end-to-end measurement: set-up, then a fixed number of cold
// campaign rounds at the engine's default worker count.
func (c *campaignWorkload) e2e(r *run) error {
	ref, err := c.subset(r.seed)
	if err != nil {
		return err
	}
	if err := r.setup(func() error { return c.warm(r) }); err != nil {
		return err
	}
	spec := c.spec(ref.Seeds, c.instructions)
	n := len(spec.Configs) * len(spec.Benchmarks) * len(spec.Seeds)
	var tput, pps, lat, pointLat []float64
	m0 := mallocs()
	for i := 0; i < c.rounds(r.seconds); i++ {
		r.rep.Attempted += n
		// On one worker, the gap between two completions is the later
		// point's latency.
		prev := time.Now()
		rr, err := c.round(r, spec, func(done, total int, job engine.Job) {
			now := time.Now()
			pointLat = append(pointLat, float64(now.Sub(prev))/1e6)
			prev = now
		})
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		if err := checkCSV(rr.csv, ref.CSVSHA256); err != nil {
			r.rep.Failed += n
			r.fail("round %d: %v", i, err)
		}
		tput = append(tput, float64(rr.instrs)/rr.elapsed.Seconds()/1e6)
		pps = append(pps, float64(n)/rr.elapsed.Seconds())
		lat = append(lat, float64(rr.elapsed)/1e6)
		info("round %d: %.3f s, %.4f Minstr/s, trace hits %d misses %d, checkpoint hits %d misses %d, checkpoint bytes written %d",
			i, rr.elapsed.Seconds(), tput[i], rr.stats.TraceHits, rr.stats.TraceMisses,
			rr.stats.CheckpointHits, rr.stats.CheckpointMisses, rr.stats.CheckpointBytesWritten)
		if c.sampled && i == 0 {
			e, err := sampleErrPct(rr.camp, ref.ExactCycles)
			if err != nil {
				r.fail("%v", err)
			}
			info("sample_err_pct %.4f (largest |sampled - exact| / exact cycles over %d points)", e, n)
		}
	}
	allocs := float64(mallocs()-m0) / float64(r.rep.Attempted)
	// A run has too few rounds for a supported tail percentile, so the
	// tail is taken over point latencies: every round repeats the same
	// points, so the percentile's rank falls on the same points each run.
	sort.Float64s(pointLat)
	tl, label, beyond := tail(pointLat)
	info("tail_ms is %s over %d point latencies (%d beyond it); slowest round %.1f ms", label, len(pointLat), beyond, slices.Max(lat))
	r.metric("minstr_per_s", "Minstr/s", median(tput))
	r.metric("req_per_s", "1/s", median(pps))
	r.metric("p50_ms", "ms", median(lat))
	r.metric("tail_ms", "ms", tl)
	r.metric("allocs_per_op", "count", allocs)
	return r.peakRSS()
}
