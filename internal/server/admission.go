package server

// Admission control for the synchronous simulation endpoint (/v1/run):
// a bounded concurrency gate with a bounded, time-limited queue,
// per-client concurrency caps, and drain-aware rejection. Requests
// past the bounds are shed immediately with 429 + Retry-After (503 while
// draining) instead of silently piling onto the engine's worker
// semaphore, so overload degrades into fast, explicit backpressure the
// client can act on. Cheap endpoints (health, metrics, stats, listings)
// bypass admission entirely — they must keep answering precisely when the
// simulation path is saturated.

import (
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"malec/internal/metrics"
)

// statusClientClosedRequest reports a client that disconnected before the
// response was written (nginx's 499 convention): nobody reads the body,
// but the status-class counters should record a client-side outcome, not
// a server error.
const statusClientClosedRequest = 499

// Shed reasons, in malecd_shed_total label order.
const (
	shedDraining = iota
	shedQueueFull
	shedQueueWait
	shedPerClient
	shedReasons
)

// shedReasonNames labels the malecd_shed_total counters.
var shedReasonNames = [shedReasons]string{"draining", "queue_full", "queue_wait", "per_client"}

// drainRetryAfter is the Retry-After hint while draining: long enough for
// an orchestrator to move on to another instance.
const drainRetryAfter = 10

// admission is the gate. All fields are set at construction; the zero
// bounds disable their respective checks.
type admission struct {
	maxConcurrent int           // sem capacity; 0 disables the gate+queue
	maxQueue      int           // waiters beyond the gate; 0 = no queue
	maxWait       time.Duration // per-waiter queue time bound
	perClient     int           // concurrent requests per client; 0 = off

	sem    chan struct{}
	queued atomic.Int64

	mu      sync.Mutex
	clients map[string]int // in-flight request count per client key

	shed [shedReasons]*metrics.Counter
}

func newAdmission(opts Options, reg *metrics.Registry) *admission {
	a := &admission{
		maxConcurrent: opts.MaxConcurrent,
		maxQueue:      opts.MaxQueueDepth,
		maxWait:       opts.MaxQueueWait,
		perClient:     opts.PerClientConcurrency,
		clients:       make(map[string]int),
	}
	if a.maxQueue < 0 {
		a.maxQueue = 0
	}
	if a.maxConcurrent > 0 {
		a.sem = make(chan struct{}, a.maxConcurrent)
	}
	for i, name := range shedReasonNames {
		a.shed[i] = reg.Counter("malecd_shed_total",
			"Requests shed by admission control, by reason.",
			metrics.Label{Name: "reason", Value: name})
	}
	return a
}

// clientKey identifies the client for per-client fairness: the API key
// when one is presented, else the remote address without the port (one
// client, many connections).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "addr:" + r.RemoteAddr
	}
	return "addr:" + host
}

// shedResponse writes a shed rejection with its Retry-After hint.
func shedResponse(w http.ResponseWriter, status, retryAfter int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, status, format, args...)
}

// retryAfter estimates how long a shed client should back off: one second
// plus the current backlog in units of serving capacity, capped so the
// hint stays actionable.
func (a *admission) retryAfter() int {
	capacity := a.maxConcurrent
	if capacity < 1 {
		capacity = 1
	}
	ra := 1 + int(a.queued.Load())/capacity
	if ra > 30 {
		ra = 30
	}
	return ra
}

// releaseClient returns a client's concurrency slot, pruning idle keys so
// the map tracks only in-flight clients.
func (a *admission) releaseClient(key string) {
	a.mu.Lock()
	if n := a.clients[key] - 1; n <= 0 {
		delete(a.clients, key)
	} else {
		a.clients[key] = n
	}
	a.mu.Unlock()
}

// admit decides whether a simulation-bearing request may proceed. On
// success it returns a release closure the handler must defer; on
// rejection it has already written the response. The checks, in order:
// drain state (503), the per-client cap (429), then the concurrency gate
// with its bounded, time-limited queue (429 on either bound).
func (a *admission) admit(w http.ResponseWriter, r *http.Request, draining bool) (func(), bool) {
	if draining {
		a.shed[shedDraining].Inc()
		shedResponse(w, http.StatusServiceUnavailable, drainRetryAfter, "server is draining")
		return nil, false
	}
	release := func() {}
	if a.perClient > 0 {
		key := clientKey(r)
		a.mu.Lock()
		if a.clients[key] >= a.perClient {
			a.mu.Unlock()
			a.shed[shedPerClient].Inc()
			shedResponse(w, http.StatusTooManyRequests, 1,
				"per-client concurrency limit (%d) reached", a.perClient)
			return nil, false
		}
		a.clients[key]++
		a.mu.Unlock()
		release = func() { a.releaseClient(key) }
	}
	if a.sem == nil {
		return release, true
	}
	select {
	case a.sem <- struct{}{}:
	default:
		// The gate is full: join the queue if there is room and the wait
		// stays bounded; shed otherwise. Shedding here — before any body
		// parsing or engine work — is what keeps overload cheap.
		if q := a.queued.Add(1); q > int64(a.maxQueue) {
			a.queued.Add(-1)
			release()
			a.shed[shedQueueFull].Inc()
			shedResponse(w, http.StatusTooManyRequests, a.retryAfter(),
				"admission queue full (%d waiting)", a.maxQueue)
			return nil, false
		}
		t := time.NewTimer(a.maxWait)
		select {
		case a.sem <- struct{}{}:
			t.Stop()
			a.queued.Add(-1)
		case <-t.C:
			a.queued.Add(-1)
			release()
			a.shed[shedQueueWait].Inc()
			shedResponse(w, http.StatusTooManyRequests, a.retryAfter(),
				"queue wait exceeded %s", a.maxWait)
			return nil, false
		case <-r.Context().Done():
			t.Stop()
			a.queued.Add(-1)
			release()
			writeError(w, statusClientClosedRequest, "client closed request")
			return nil, false
		}
	}
	clientRelease := release
	return func() {
		<-a.sem
		clientRelease()
	}, true
}
