package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"malec/internal/config"
	"malec/internal/engine"
	"malec/internal/server"
)

// The serve-hit hot set: every Fig. 4 configuration over these benchmarks
// at one simulation seed, short enough to simulate during set-up.
var (
	hotBenchmarks   = []string{"gzip", "mcf", "art", "mpeg2enc", "ptrchase", "tlbthrash"}
	hotInstructions = 20_000
)

// serveReqPerSecond is the nominal request rate on the reference host (2
// cores); it converts --seconds into a fixed request count.
const serveReqPerSecond = 12_000

// serveRoundRequests is the size of one round. Every serve-hit metric is a
// median over rounds; at 5,000 requests a round's tail is its p99, with
// 50 samples beyond it. A p99.9 over a whole run measures mostly garbage
// collector pauses and moved 20-30% between runs of the same code.
const serveRoundRequests = 5000

// serveWarmRequests is the size of the warm-up pass over the held-out hot
// set.
const serveWarmRequests = 2000

// serveClients is the closed loop's client count.
var serveClients = runtime.GOMAXPROCS(0)

// serveState is an in-process malecd handler on a loopback listener with
// a keep-alive client; in serve-hit it is one set-up repetition, with the
// hot set resident.
type serveState struct {
	dir     string // removed by close, when set
	eng     *engine.Engine
	handler http.Handler
	hs      *http.Server
	served  chan error
	url     string
	tr      *http.Transport
	client  *http.Client
	clients int

	hot    []point
	bodies [][]byte // request body per hot point
	want   [][]byte // response body recorded at set-up, per hot point
}

// hotSet lists the hot points for one simulation seed.
func hotSet(seed uint64) []point {
	return grid(config.Fig4Configs(), hotBenchmarks, []uint64{seed}, hotInstructions)
}

// hotSeed maps the workload seed to the hot set's simulation seed.
func hotSeed(seed uint64) uint64 { return seed%8 + 1 }

// requestSequence draws n point indexes from the workload seed.
func requestSequence(seed uint64, n, points int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.IntN(points)
	}
	return seq
}

// startServer serves eng through an in-process malecd handler on a
// loopback listener, with a keep-alive client of up to GOMAXPROCS
// connections.
func startServer(eng *engine.Engine) (*serveState, error) {
	s := &serveState{eng: eng, clients: serveClients, served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.handler = server.New(eng, server.Options{})
	s.hs = &http.Server{Handler: s.handler}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/v1/run"
	s.tr = &http.Transport{MaxIdleConnsPerHost: s.clients, MaxConnsPerHost: s.clients, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr}
	return s, nil
}

// newServe is one set-up repetition: it builds the engine and server over
// a fresh cache directory, simulates the hot set and the held-out warm-up
// set, runs the warm-up pass, and records each hot point's response.
func newServe(r *run) (*serveState, error) {
	dir, err := r.scratch("serve")
	if err != nil {
		return nil, err
	}
	s, err := startServer(engine.New(engine.Options{CacheDir: dir}))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.dir = dir
	if err := s.prime(r); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveState) prime(r *run) error {
	var err error
	s.hot = hotSet(hotSeed(r.seed))
	if s.bodies, err = bodies(s.hot); err != nil {
		return err
	}
	warmBodies, err := bodies(hotSet(warmSeed))
	if err != nil {
		return err
	}
	camp, err := s.eng.RunCampaignContext(r.ctx, engine.CampaignSpec{
		Configs:      config.Fig4Configs(),
		Benchmarks:   hotBenchmarks,
		Instructions: hotInstructions,
		Seeds:        []uint64{hotSeed(r.seed), warmSeed},
	})
	if err != nil {
		return fmt.Errorf("simulating the hot set: %w", err)
	}
	warmSeq := requestSequence(warmSeed, serveWarmRequests, len(warmBodies))
	if _, failed, err := s.loop(warmBodies, nil, warmSeq, s.clients); err != nil || failed > 0 {
		return fmt.Errorf("warm-up pass: %d failed, %v", failed, err)
	}
	s.want = make([][]byte, len(s.hot))
	for i, p := range s.hot {
		status, body, err := s.post(s.bodies[i])
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("recording %s: status %d, %v", p.id(), status, err)
		}
		var resp struct {
			Source string `json:"source"`
			Result struct{ Cycles uint64 }
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("recording %s: %w", p.id(), err)
		}
		res, ok := camp.Result(p.cfg.Name, p.bench, p.seed)
		if !ok || resp.Source != string(engine.SourceMemory) || resp.Result.Cycles != res.Cycles {
			return fmt.Errorf("recording %s: source %q cycles %d, campaign cycles %d", p.id(), resp.Source, resp.Result.Cycles, res.Cycles)
		}
		s.want[i] = body
	}
	return nil
}

// post sends one /v1/run request and returns the status and body.
func (s *serveState) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// loop is the closed-loop load: clients goroutines each send their next
// request only after the previous reply, until seq is exhausted. A reply
// fails unless it is 200 and, when want is set, byte-identical to the
// recorded response. It returns the per-request latencies in milliseconds
// (unordered) and the failure count.
func (s *serveState) loop(bodies, want [][]byte, seq []int, clients int) ([]float64, int, error) {
	var (
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		lats   = make([]float64, 0, len(seq))
		first  error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]float64, 0, len(seq)/clients+1)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					break
				}
				p := seq[i]
				t0 := time.Now()
				status, body, err := s.post(bodies[p])
				mine = append(mine, float64(time.Since(t0))/1e6)
				if err != nil || status != http.StatusOK || (want != nil && !bytes.Equal(body, want[p])) {
					failed.Add(1)
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("request %d: status %d, %v", i, status, err)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lats, int(failed.Load()), first
}

// close stops the server, waits for it to exit and removes its cache.
func (s *serveState) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tr.CloseIdleConnections()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
	return err
}

// serveE2E is the serve-hit end-to-end measurement: set-up, then a fixed
// number of requests in equal rounds from a closed loop of GOMAXPROCS
// clients.
func serveE2E(r *run) error {
	var s *serveState
	err := r.setup(func() error {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		var err error
		s, err = newServe(r)
		return err
	})
	if err != nil {
		return err
	}
	defer s.close()

	rounds := max(1, r.seconds*serveReqPerSecond/serveRoundRequests)
	seq := requestSequence(r.seed, rounds*serveRoundRequests, len(s.hot))
	var rps, p50s, tails, all []float64
	label, beyond := "", 0
	m0 := mallocs()
	for k := 0; k < rounds; k++ {
		part := seq[k*serveRoundRequests : (k+1)*serveRoundRequests]
		t0 := time.Now()
		lats, failed, err := s.loop(s.bodies, s.want, part, s.clients)
		el := time.Since(t0)
		r.rep.Attempted += len(part)
		r.rep.Failed += failed
		if failed > 0 {
			r.fail("round %d: %d of %d responses wrong or failed (first: %v)", k, failed, len(part), err)
		}
		sort.Float64s(lats)
		p50, _ := rank(lats, 500)
		var tl float64
		tl, label, beyond = tail(lats)
		rps = append(rps, float64(len(part))/el.Seconds())
		p50s = append(p50s, p50)
		tails = append(tails, tl)
		all = append(all, lats...)
	}
	allocs := float64(mallocs()-m0) / float64(len(seq))
	info("%d rounds of %d requests; req/s %v", rounds, serveRoundRequests, rps)
	sort.Float64s(all)
	whole, wlabel, wbeyond := tail(all)
	info("tail_ms is the median of each round's %s (%d samples beyond it); over the whole run, %s is %.4f ms (%d beyond)",
		label, beyond, wlabel, whole, wbeyond)
	r.metric("req_per_s", "1/s", median(rps))
	r.metric("minstr_per_s", "Minstr/s", median(rps)*float64(hotInstructions)/1e6)
	r.metric("p50_ms", "ms", median(p50s))
	r.metric("tail_ms", "ms", median(tails))
	r.metric("allocs_per_op", "count", allocs)
	return r.peakRSS()
}
