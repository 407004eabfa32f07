package server

// Tests for the /v1/run memory-hit memo: a memoized body must be byte for
// byte the per-request encoding (compact JSON plus a newline) of the
// result the engine holds now, for exact and sampled points and across
// eviction and disk reloads; only memory hits are memoized; and the hit
// path's allocations stay pinned.

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"malec/internal/engine"
)

// serveRun sends one /v1/run body straight to the handler and returns the
// recorded response with its source and key.
func serveRun(t *testing.T, srv *Server, body string) (*httptest.ResponseRecorder, engine.Source, engine.Key) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Source engine.Source `json:"source"`
		Key    engine.Key    `json:"key"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return rec, resp.Source, resp.Key
}

// memoEntry returns the memo's body for key.
func memoEntry(srv *Server, key engine.Key) (memoBody, bool) {
	srv.hits.mu.Lock()
	defer srv.hits.mu.Unlock()
	b, ok := srv.hits.bodies[key]
	return b, ok
}

// checkHit asserts that a memory hit was served from the memo, with the
// exact bytes writeJSON produces for the result the engine holds now, and
// returns the body.
func checkHit(t *testing.T, srv *Server, eng *engine.Engine, body string) []byte {
	t.Helper()
	rec, src, key := serveRun(t, srv, body)
	if src != engine.SourceMemory {
		t.Fatalf("source %q, want memory", src)
	}
	res, ok := eng.Resident(key)
	if !ok {
		t.Fatal("memory hit for a key the engine does not hold")
	}
	resp := runResponse{Key: key, Source: src, Cached: true, Result: res, Sampling: res.Sampling}
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, resp)
	if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("memoized body differs from the per-request encoding:\n%s\nwant\n%s", rec.Body, want.Body)
	}
	compact, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), append(compact, '\n')) {
		t.Fatalf("memoized body is not compact JSON plus a newline:\n%s\nwant\n%s", rec.Body, compact)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q, body %d bytes", cl, rec.Body.Len())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	b, ok := memoEntry(srv, key)
	if !ok || b.counters != res.Counters || !bytes.Equal(b.body, rec.Body.Bytes()) {
		t.Fatal("memory hit not served from a memo entry tied to the stored result")
	}
	if n, resident := len(memoSnapshot(srv)), eng.Stats().Entries; n > resident {
		t.Fatalf("memo holds %d bodies for %d resident results", n, resident)
	}
	return rec.Body.Bytes()
}

// memoSnapshot copies the memo's entries.
func memoSnapshot(srv *Server) map[engine.Key]memoBody {
	srv.hits.mu.Lock()
	defer srv.hits.mu.Unlock()
	return maps.Clone(srv.hits.bodies)
}

// checkNotMemoized serves a request expected from a non-memory source and
// asserts it left the memo untouched.
func checkNotMemoized(t *testing.T, srv *Server, body string, want engine.Source) {
	t.Helper()
	before := memoSnapshot(srv)
	if _, src, _ := serveRun(t, srv, body); src != want {
		t.Fatalf("source %q, want %q", src, want)
	}
	after := memoSnapshot(srv)
	if len(after) != len(before) {
		t.Fatalf("%s response changed the memo size %d -> %d", want, len(before), len(after))
	}
	for k, b := range after {
		if old, ok := before[k]; !ok || &old.body[0] != &b.body[0] {
			t.Fatalf("%s response was memoized", want)
		}
	}
}

const (
	memoExactBody   = `{"config":"MALEC","benchmark":"gzip","instructions":20000,"seed":3}`
	memoSampledBody = `{"config":"MALEC","benchmark":"gzip","instructions":20000,"seed":3,
		"sampling":{"Warmup":200,"Detail":800,"Interval":10000}}`
	memoOtherBody = `{"config":"Base1ldst","benchmark":"mcf","instructions":20000,"seed":3}`
)

func TestMemoryHitExactPoint(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	srv := New(eng, Options{})
	checkNotMemoized(t, srv, memoExactBody, engine.SourceSimulated)
	first := checkHit(t, srv, eng, memoExactBody)
	if again := checkHit(t, srv, eng, memoExactBody); !bytes.Equal(again, first) {
		t.Fatal("second memory hit differs from the first")
	}
}

// TestMemoryHitSampledThenDiskReload covers a key that comes back as a
// different stored result: a sampled point simulated here carries its
// "sampling" estimate, the same point reloaded from disk after eviction
// does not, and the memo must not serve the first body for the second.
func TestMemoryHitSampledThenDiskReload(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, CacheDir: t.TempDir(), MaxCacheEntries: 1})
	srv := New(eng, Options{})
	checkNotMemoized(t, srv, memoSampledBody, engine.SourceSimulated)
	sampled := checkHit(t, srv, eng, memoSampledBody)
	if !bytes.Contains(sampled, []byte(`"sampling"`)) {
		t.Fatalf("in-process sampled hit lacks its estimate: %s", sampled)
	}
	// Evict the sampled point; its memo body stays until a new one
	// needs the room.
	checkNotMemoized(t, srv, memoOtherBody, engine.SourceSimulated)
	checkNotMemoized(t, srv, memoSampledBody, engine.SourceDisk)
	reloaded := checkHit(t, srv, eng, memoSampledBody)
	if bytes.Contains(reloaded, []byte(`"sampling"`)) {
		t.Fatalf("disk-reloaded hit carries the evicted result's estimate: %s", reloaded)
	}
}

// TestMemoryHitEvictedAndResimulated re-simulates an evicted key with no
// disk store: the new stored result gets its own memo entry, and the memo
// stays within the one resident result.
func TestMemoryHitEvictedAndResimulated(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, MaxCacheEntries: 1})
	srv := New(eng, Options{})
	checkNotMemoized(t, srv, memoExactBody, engine.SourceSimulated)
	first := checkHit(t, srv, eng, memoExactBody)
	checkNotMemoized(t, srv, memoOtherBody, engine.SourceSimulated)
	checkHit(t, srv, eng, memoOtherBody)
	checkNotMemoized(t, srv, memoExactBody, engine.SourceSimulated)
	if again := checkHit(t, srv, eng, memoExactBody); !bytes.Equal(again, first) {
		t.Fatal("re-simulated point encodes differently")
	}
}

// TestMemoryHitNilCountersNotMemoized checks that a result with no
// counters to tie a body to is encoded on every hit.
func TestMemoryHitNilCountersNotMemoized(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, Simulate: plain(stubSim)})
	srv := New(eng, Options{})
	for i := 0; i < 3; i++ {
		serveRun(t, srv, memoExactBody)
	}
	if n := len(memoSnapshot(srv)); n != 0 {
		t.Fatalf("memo holds %d bodies for counter-less results", n)
	}
}

// memoryHitAllocCeiling pins the allocations of one /v1/run memory hit
// through the full handler (routing, instrumentation, admission, request
// decoding, engine lookup and the response) plus the recorder and request
// the test builds. Measured at 28: the response body, the config digest
// and the header values are built once per resident result, the body is
// read into pooled storage, the status writer is pooled, and a hit builds
// no context. What remains is routing, the json.Decoder with what it
// decodes, and net/http's header map and clone.
const memoryHitAllocCeiling = 30

// raceDetector is set under -race, which changes allocation counts.
var raceDetector bool

func TestMemoryHitAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under the race detector")
	}
	eng := engine.New(engine.Options{Workers: 1})
	srv := New(eng, Options{})
	serveRun(t, srv, memoExactBody)
	serveRun(t, srv, memoExactBody)
	n := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(memoExactBody)))
		if rec.Code != http.StatusOK {
			panic(rec.Body.String())
		}
	})
	t.Logf("memory hit: %.1f allocs", n)
	if n > memoryHitAllocCeiling {
		t.Fatalf("memory hit allocates %.1f/op, ceiling %d", n, memoryHitAllocCeiling)
	}
}

// statsHits reads malec_engine_cache_hits_total from a /metrics scrape.
func statsHits(t *testing.T, srv *Server) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	hits, ok := metricValue(rec.Body.String(), "malec_engine_cache_hits_total")
	if !ok {
		t.Fatalf("/metrics has no malec_engine_cache_hits_total:\n%s", rec.Body)
	}
	return uint64(hits)
}

// TestResidentHitCountedOnce checks that each memory hit adds exactly one
// to the served malec_engine_cache_hits_total, whether its body comes from the memo or, for a
// counter-less result, from a fresh encode.
func TestResidentHitCountedOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		sim  engine.SimulateFunc
	}{{"memoized", nil}, {"counter-less", plain(stubSim)}} {
		eng := engine.New(engine.Options{Workers: 1, Simulate: c.sim})
		srv := New(eng, Options{})
		if _, src, _ := serveRun(t, srv, memoExactBody); src != engine.SourceSimulated {
			t.Fatalf("%s: first request served from %q", c.name, src)
		}
		for want := uint64(1); want <= 3; want++ {
			if _, src, _ := serveRun(t, srv, memoExactBody); src != engine.SourceMemory {
				t.Fatalf("%s: repeat served from %q", c.name, src)
			}
			if got := statsHits(t, srv); got != want {
				t.Fatalf("%s: hits %d after %d memory hits", c.name, got, want)
			}
		}
	}
}

// TestResidentHitCancelledClient checks that a client that has already
// gone away gets 499 even for a resident point, and no hit is counted.
func TestResidentHitCancelledClient(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	srv := New(eng, Options{})
	serveRun(t, srv, memoExactBody)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(memoExactBody))
	srv.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != statusClientClosedRequest || !strings.Contains(rec.Body.String(), `"client closed request"`) {
		t.Fatalf("cancelled client got %d %s, want 499", rec.Code, rec.Body)
	}
	if got := statsHits(t, srv); got != 0 {
		t.Fatalf("hits %d after a cancelled request", got)
	}
}

// TestResidentHitIgnoresDeadline checks that a resident point is served
// however short the request's deadline: the deadline bounds simulation,
// and a hit simulates nothing.
func TestResidentHitIgnoresDeadline(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	srv := New(eng, Options{})
	serveRun(t, srv, memoExactBody)
	tight := strings.Replace(memoExactBody, "}", `,"deadline_ms":1}`, 1)
	for i := 0; i < 20; i++ {
		if _, src, _ := serveRun(t, srv, tight); src != engine.SourceMemory {
			t.Fatalf("deadline_ms 1 served from %q", src)
		}
	}
}
