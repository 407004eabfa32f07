// Command malecload drives a running malecd with open-loop load at a
// fixed offered rate and reports latency percentiles, error rate and
// achieved-vs-offered RPS per slot as JSON. It is the harness behind the
// CI serving and chaos smokes.
//
//	malecload -start-rps 200 -slots 3 -slot 5s -mix hit=8,run=2
//
// Requests are drawn from a weighted mix of populations (-mix):
//
//	hit    repeated /v1/run for one fixed point — after the first
//	       response every request is an in-memory cache hit, measuring
//	       the pure serving path;
//	sweep  a small fixed /v1/sweep campaign — cache-hit dominated after
//	       the first response, measuring the campaign/export path;
//	run    /v1/run with a fresh seed per request — every request is a
//	       real simulation, measuring the engine under simulate load;
//	stream resume a shared durable campaign's NDJSON results stream from
//	       the last cursor seen, read a few records, and deliberately
//	       disconnect — the churn of a streaming client on flaky
//	       connectivity, measuring the campaign resume path.
//
// e.g. -mix hit=8,run=2 offers 80% cache hits and 20% fresh
// simulations. The generator is open-loop: arrivals are scheduled by
// the offered rate, not by completions, so saturation shows up honestly
// as queueing (rising percentiles), timeouts and a widening gap between
// offered and achieved RPS rather than as a silently slowed generator.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// reqKind is one request population in the mix.
type reqKind int

const (
	kindHit reqKind = iota
	kindRun
	kindSweep
	kindStream
)

var kindNames = map[string]reqKind{"hit": kindHit, "run": kindRun, "sweep": kindSweep, "stream": kindStream}

func (k reqKind) String() string {
	switch k {
	case kindHit:
		return "hit"
	case kindRun:
		return "run"
	case kindStream:
		return "stream"
	}
	return "sweep"
}

// generator owns the target, the client and the request mix.
type generator struct {
	base         string // malecd base URL
	client       *http.Client
	schedule     []reqKind // weight-expanded, walked round-robin
	next         atomic.Uint64
	seed         atomic.Uint64 // fresh-seed counter for the run population
	seedBase     uint64        // per-invocation offset for run seeds
	instructions int
	inflight     chan struct{} // bounds concurrent requests
	// retries is how many times one request may be re-sent after a shed
	// (429/503) response, with exponential backoff honoring Retry-After.
	// 0 (the default) keeps the generator strictly open-loop: a shed is a
	// shed, counted and done.
	retries int
	// The stream population shares one lazily created campaign and a
	// resume cursor: each request resumes the results stream at the
	// cursor, reads a few records, deliberately disconnects, and leaves
	// the cursor where the next request should pick up — the churn of a
	// realistic streaming client under flaky connectivity.
	streamOnce   sync.Once
	campaignID   atomic.Value // string
	streamCursor atomic.Uint64
}

// backoffCap bounds one retry sleep, whatever Retry-After claims, so a
// drain hint cannot stall a load slot for its full duration.
const backoffCap = 5 * time.Second

// parseRetryAfter interprets a Retry-After value, which arrives as either
// a second count (fractional from some proxies, though the RFC says
// integer) or an HTTP-date. Absent or unparsable values return 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs * float64(time.Second))
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// backoff computes the sleep before retry number attempt (0-based): the
// server's Retry-After when it sent one, else 100ms doubling per attempt,
// both with up to 50% added jitter so synchronized clients decorrelate.
func backoff(attempt int, retryAfter string) time.Duration {
	d := 100 * time.Millisecond << attempt
	if ra := parseRetryAfter(retryAfter); ra > 0 {
		d = ra
	}
	if d > backoffCap {
		d = backoffCap
	}
	return d + rand.N(d/2+1)
}

// outcome is one offered request's fate, retries included.
type outcome struct {
	lat     time.Duration
	ok      bool
	shed    int // 429/503 responses seen (including ones retried away)
	retries int // retry attempts consumed
}

// pick returns the next request kind in the weighted rotation. The
// rotation is deterministic, so two invocations with the same flags
// offer byte-identical request sequences.
func (g *generator) pick() reqKind {
	return g.schedule[g.next.Add(1)%uint64(len(g.schedule))]
}

// body builds the request body and path for one request.
func (g *generator) body(kind reqKind) (path, payload string) {
	switch kind {
	case kindHit:
		return "/v1/run", fmt.Sprintf(
			`{"config":"MALEC","benchmark":"gzip","instructions":%d,"seed":1}`, g.instructions)
	case kindRun:
		// A fresh seed per request: a distinct simulation point every
		// time, so this population exercises the simulate path (and the
		// trace cache) instead of the result cache. The base is unique
		// per invocation (see -run-seed-base) or a second malecload run
		// against a warm daemon would measure cache hits by accident.
		return "/v1/run", fmt.Sprintf(
			`{"config":"MALEC","benchmark":"gzip","instructions":%d,"seed":%d}`,
			g.instructions, g.seedBase+g.seed.Add(1))
	default:
		return "/v1/sweep", fmt.Sprintf(
			`{"configs":["Base1ldst","MALEC"],"benchmarks":["gzip"],"instructions":%d,"seeds":[1,2]}`,
			g.instructions)
	}
}

// streamCampaign lazily submits the small shared campaign the stream
// population follows, returning its handle.
func (g *generator) streamCampaign() (string, bool) {
	g.streamOnce.Do(func() {
		payload := fmt.Sprintf(
			`{"configs":["Base1ldst","MALEC"],"benchmarks":["gzip"],"instructions":%d,"seeds":[1,2]}`,
			g.instructions)
		resp, err := g.client.Post(g.base+"/v1/campaigns", "application/json", strings.NewReader(payload))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
			return
		}
		var st struct {
			ID string `json:"id"`
		}
		if json.NewDecoder(resp.Body).Decode(&st) == nil && st.ID != "" {
			g.campaignID.Store(st.ID)
		}
	})
	id, _ := g.campaignID.Load().(string)
	return id, id != ""
}

// doStream performs one stream-population request: resume the shared
// campaign's NDJSON results stream from the population's cursor, read a
// few records, then deliberately hang up. The next request resumes with
// ?after= where this one left off — exercising exactly the
// disconnect/resume path the campaign API guarantees.
func (g *generator) doStream() outcome {
	t0 := time.Now()
	var out outcome
	id, ok := g.streamCampaign()
	if !ok {
		out.lat = time.Since(t0)
		return out
	}
	resp, err := g.client.Get(fmt.Sprintf("%s/v1/campaigns/%s/results?after=%d",
		g.base, id, g.streamCursor.Load()))
	if err != nil {
		out.lat = time.Since(t0)
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
		out.lat = time.Since(t0)
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	for lines := 0; lines < 4 && sc.Scan(); lines++ {
		var line struct {
			Seq  uint64 `json:"seq"`
			Done bool   `json:"done"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			out.lat = time.Since(t0)
			return out
		}
		// Publish the furthest cursor seen so the next stream request
		// resumes past it (concurrent streams race; max wins).
		for line.Seq > 0 {
			cur := g.streamCursor.Load()
			if line.Seq <= cur || g.streamCursor.CompareAndSwap(cur, line.Seq) {
				break
			}
		}
		if line.Done {
			g.streamCursor.Store(0) // re-stream from the top next time
			break
		}
	}
	// Returning closes the body mid-stream: the deliberate disconnect.
	out.ok = true
	out.lat = time.Since(t0)
	return out
}

// do performs one request (plus up to g.retries backed-off retries after
// shed responses), returning its outcome. Latency covers the whole
// attempt chain — what the caller actually waited.
func (g *generator) do(kind reqKind) outcome {
	if kind == kindStream {
		return g.doStream()
	}
	path, payload := g.body(kind)
	t0 := time.Now()
	var out outcome
	for attempt := 0; ; attempt++ {
		resp, err := g.client.Post(g.base+path, "application/json", strings.NewReader(payload))
		if err != nil {
			out.lat = time.Since(t0)
			return out
		}
		_, copyErr := io.Copy(io.Discard, resp.Body)
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if copyErr == nil && resp.StatusCode == http.StatusOK {
			out.lat = time.Since(t0)
			out.ok = true
			return out
		}
		shed := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if shed {
			out.shed++
		}
		if !shed || attempt >= g.retries {
			out.lat = time.Since(t0)
			return out
		}
		out.retries++
		time.Sleep(backoff(attempt, retryAfter))
	}
}

// slotReport is one measurement slot's result.
type slotReport struct {
	Slot        int     `json:"slot"`
	OfferedRPS  float64 `json:"offered_rps"`
	DurationSec float64 `json:"duration_sec"`
	Launched    int     `json:"launched"`
	Succeeded   int     `json:"succeeded"`
	Errors      int     `json:"errors"`
	// Dropped counts arrivals shed because the in-flight cap was
	// reached — the generator's own admission control, counted into
	// error_rate because the offered request was not served.
	Dropped int `json:"dropped"`
	// Shed counts 429/503 responses from the daemon's admission control,
	// including ones later retried into a success; Retries counts retry
	// attempts consumed (both 0 unless -retries > 0 for the latter).
	Shed    int `json:"shed"`
	Retries int `json:"retries"`
	// MaxRetryDepth is the deepest retry chain any single request needed
	// this slot — chaos runs assert on it to prove backoff engaged.
	MaxRetryDepth int `json:"max_retry_depth"`
	// DrainSec is how long after the slot ended the last in-flight
	// request took to complete. A healthy slot drains in ~one request
	// latency; a large drain means the slot left a backlog behind.
	DrainSec float64 `json:"drain_sec"`
	// AchievedRPS is successes over the full elapsed time including the
	// drain, so a backlog the server only worked off after arrivals
	// stopped cannot masquerade as sustained throughput.
	AchievedRPS float64 `json:"achieved_rps"`
	ErrorRate   float64 `json:"error_rate"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	MeanMs      float64 `json:"mean_ms"`
}

// runSlot offers rps for the slot duration and gathers the report.
// Arrivals are paced on an absolute schedule (start + i*interval): a
// stalled request never delays later arrivals, it only raises the
// in-flight count.
func (g *generator) runSlot(slot int, rps float64, d time.Duration) slotReport {
	interval := time.Duration(float64(time.Second) / rps)
	var (
		mu       sync.Mutex
		latNs    []int64
		errors   int
		dropped  int
		shed     int
		retries  int
		maxDepth int
		wg       sync.WaitGroup
	)
	launched := 0
	start := time.Now()
	end := start.Add(d)
	for next := start; next.Before(end); next = next.Add(interval) {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		kind := g.pick()
		select {
		case g.inflight <- struct{}{}:
		default:
			dropped++
			launched++
			continue
		}
		launched++
		wg.Add(1)
		go func(kind reqKind) {
			defer wg.Done()
			defer func() { <-g.inflight }()
			out := g.do(kind)
			mu.Lock()
			if out.ok {
				latNs = append(latNs, out.lat.Nanoseconds())
			} else {
				errors++
			}
			shed += out.shed
			retries += out.retries
			if out.retries > maxDepth {
				maxDepth = out.retries
			}
			mu.Unlock()
		}(kind)
	}
	wg.Wait() // drain the tail; bounded by the client timeout
	elapsed := time.Since(start)

	rep := slotReport{
		Slot:          slot,
		OfferedRPS:    rps,
		DurationSec:   d.Seconds(),
		Launched:      launched,
		Succeeded:     len(latNs),
		Errors:        errors,
		Dropped:       dropped,
		Shed:          shed,
		Retries:       retries,
		MaxRetryDepth: maxDepth,
		DrainSec:      (elapsed - d).Seconds(),
		AchievedRPS:   float64(len(latNs)) / elapsed.Seconds(),
	}
	if launched > 0 {
		rep.ErrorRate = float64(errors+dropped) / float64(launched)
	}
	if len(latNs) > 0 {
		sort.Slice(latNs, func(i, j int) bool { return latNs[i] < latNs[j] })
		var sum int64
		for _, n := range latNs {
			sum += n
		}
		ms := func(n int64) float64 { return float64(n) / 1e6 }
		quant := func(q float64) float64 {
			idx := int(math.Ceil(q*float64(len(latNs)))) - 1
			if idx < 0 {
				idx = 0
			}
			return ms(latNs[idx])
		}
		rep.P50Ms = quant(0.50)
		rep.P90Ms = quant(0.90)
		rep.P99Ms = quant(0.99)
		rep.MaxMs = ms(latNs[len(latNs)-1])
		rep.MeanMs = ms(sum / int64(len(latNs)))
	}
	return rep
}

// report is the top-level JSON document.
type report struct {
	Target         string         `json:"target"`
	Mix            map[string]int `json:"mix"`
	Instructions   int            `json:"instructions"`
	Slots          []slotReport   `json:"slots"`
	TotalLaunched  int            `json:"total_launched"`
	TotalSucceeded int            `json:"total_succeeded"`
	TotalErrors    int            `json:"total_errors"`
	TotalShed      int            `json:"total_shed"`
	TotalRetries   int            `json:"total_retries"`
	WallSeconds    float64        `json:"wall_seconds"`
}

// parseMix parses "hit=8,run=2" into weights and the expanded schedule.
func parseMix(spec string) (map[string]int, []reqKind, error) {
	weights := map[string]int{}
	var schedule []reqKind
	for _, part := range strings.Split(spec, ",") {
		name, wstr, found := strings.Cut(strings.TrimSpace(part), "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil || w <= 0 {
				return nil, nil, fmt.Errorf("bad weight in %q", part)
			}
		}
		kind, ok := kindNames[name]
		if !ok {
			return nil, nil, fmt.Errorf("unknown population %q (hit, run, sweep, stream)", name)
		}
		if _, dup := weights[name]; dup {
			return nil, nil, fmt.Errorf("population %q listed twice", name)
		}
		weights[name] = w
		for i := 0; i < w; i++ {
			schedule = append(schedule, kind)
		}
	}
	if len(schedule) == 0 {
		return nil, nil, fmt.Errorf("empty mix")
	}
	return weights, schedule, nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "malecd base URL")
		startRPS = flag.Float64("start-rps", 100, "offered RPS")
		slotDur  = flag.Duration("slot", 5*time.Second, "duration of each RPS slot")
		slots    = flag.Int("slots", 4, "slot count")
		mixSpec  = flag.String("mix", "hit", "weighted request mix, e.g. hit=8,run=2,sweep=1,stream=1")
		instr    = flag.Int("instructions", 50000, "instructions per requested simulation point")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout (a timed-out request is an error)")
		maxInfl  = flag.Int("max-inflight", 1024, "in-flight request cap; arrivals beyond it are dropped (counted as errors)")
		warmup   = flag.Bool("warmup", true, "synchronously prime each population once before measuring")
		seedBase = flag.Uint64("run-seed-base", 0, "first seed for the run population (0: derive from wall clock, unique per invocation)")
		retries  = flag.Int("retries", 0, "retries per request after a shed (429/503) response, exponential backoff honoring Retry-After (0: shed is final)")
	)
	flag.Parse()

	weights, schedule, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "malecload: -mix:", err)
		return 2
	}
	g := &generator{
		base: strings.TrimRight(*addr, "/"),
		client: &http.Client{
			Timeout: *timeout,
			Transport: &http.Transport{
				MaxIdleConns:        *maxInfl,
				MaxIdleConnsPerHost: *maxInfl,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		schedule:     schedule,
		seedBase:     *seedBase,
		instructions: *instr,
		inflight:     make(chan struct{}, *maxInfl),
		retries:      *retries,
	}
	if g.seedBase == 0 {
		g.seedBase = uint64(time.Now().UnixNano())
	}

	if *warmup {
		// Prime each population once so the hit/sweep mixes measure the
		// cache-hit steady state, not one cold simulation; also proves
		// the daemon is up before load starts.
		for name, kind := range kindNames {
			if weights[name] == 0 {
				continue
			}
			if out := g.do(kind); !out.ok {
				fmt.Fprintf(os.Stderr, "malecload: warmup %s request failed after %v (is malecd up at %s?)\n",
					name, out.lat.Round(time.Millisecond), g.base)
				return 1
			}
		}
	}

	rep := report{
		Target:       g.base,
		Mix:          weights,
		Instructions: *instr,
	}
	t0 := time.Now()
	for i := 1; i <= *slots; i++ {
		fmt.Fprintf(os.Stderr, "[slot %d: offering %.0f rps for %v]\n", i, *startRPS, *slotDur)
		rep.Slots = append(rep.Slots, g.runSlot(i, *startRPS, *slotDur))
	}
	rep.WallSeconds = time.Since(t0).Seconds()
	for _, s := range rep.Slots {
		rep.TotalLaunched += s.Launched
		rep.TotalSucceeded += s.Succeeded
		rep.TotalErrors += s.Errors + s.Dropped
		rep.TotalShed += s.Shed
		rep.TotalRetries += s.Retries
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "malecload:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
