// Command malecd serves MALEC simulations over HTTP. It fronts one
// campaign engine, so concurrent requests for the same simulation point
// run it once, repeated requests are cache hits, and with -cache-dir
// results survive restarts.
//
// Usage:
//
//	malecd -addr :8080 -workers 8 -cache-dir /var/cache/malec
//
//	curl -d '{"config":"MALEC","benchmark":"gzip","instructions":500000}' \
//	    localhost:8080/v1/run
//	curl -d '{"configs":["MALEC"],"benchmarks":["gzip"]}' localhost:8080/v1/campaigns
//	curl localhost:8080/v1/campaigns/<id>/results        # NDJSON stream, resumable
//
// With -cache-dir set, campaigns journal their progress under
// <cache-dir>/v1/campaigns/<id>; on restart malecd replays the journals,
// so completed campaigns keep serving their exports and interrupted ones
// resume without recomputing any completed point.
//
// GET /metrics serves the Prometheus text exposition; -pprof mounts
// net/http/pprof under /debug/pprof/. On SIGINT/SIGTERM the daemon fails
// /readyz, stops accepting connections and drains in-flight requests for
// up to -drain-timeout before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"malec/internal/engine"
	"malec/internal/faultinject"
	"malec/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "max concurrent simulations (default GOMAXPROCS)")
		cacheDir   = flag.String("cache-dir", "", "persist results in this directory across restarts")
		maxInstr   = flag.Int("max-instructions", 5_000_000, "per-request instruction limit")
		maxCache   = flag.Int("max-cache-entries", 1<<14, "in-memory result cache bound (oldest evicted; 0 = unbounded)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the same listener")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain window for in-flight requests on SIGINT/SIGTERM")
		drainGrace = flag.Duration("drain-grace", 0, "pause between failing /readyz and closing the listener, so load balancers stop routing first")
		reqTimeout = flag.Duration("request-timeout", 5*time.Minute, "processing deadline for a /v1/run request or a campaign export (0 = unbounded; a run's deadline_ms can only tighten it)")
		maxConc    = flag.Int("max-concurrent", 0, "simulation-bearing requests admitted at once (0 = 2x workers, negative = unbounded)")
		maxQueue   = flag.Int("max-queue", 256, "admission queue depth beyond -max-concurrent; excess shed with 429 + Retry-After")
		queueWait  = flag.Duration("queue-wait", 5*time.Second, "max time a request may wait in the admission queue before being shed")
		perClient  = flag.Int("per-client", 32, "concurrent simulation-bearing requests per client (X-API-Key or remote address; 0 = unbounded)")
		maxCamps   = flag.Int("max-campaigns", 8, "concurrently running durable campaigns; excess submissions shed with 429")
		journalRet = flag.Duration("journal-retention", 7*24*time.Hour, "age past which completed campaign journals are pruned at startup (0 = keep forever)")
		corruptRet = flag.Duration("corrupt-retention", 7*24*time.Hour, "age past which .corrupt quarantine files are pruned at startup (0 = keep forever)")
	)
	flag.Parse()

	eng := engine.New(engine.Options{
		Workers:         *workers,
		CacheDir:        *cacheDir,
		MaxCacheEntries: *maxCache,
	})
	// Admission defaults scale with simulation capacity: admit up to twice
	// the worker count (the extra headroom keeps workers fed through cache
	// hits), queue a bounded burst beyond that, shed the rest.
	concurrent := *maxConc
	switch {
	case concurrent == 0:
		concurrent = 2 * eng.Workers()
	case concurrent < 0:
		concurrent = 0
	}
	// Startup hygiene before serving: sweep aged .corrupt quarantine
	// files, prune expired campaign journals, then replay the survivors —
	// completed campaigns re-register for status/export serving, unfinished
	// ones (a previous process crashed or was killed mid-campaign) resume
	// where their journal left off, pulling completed points from the
	// result store instead of recomputing them.
	if pruned := eng.PruneCorrupt(*corruptRet); pruned > 0 {
		log.Printf("malecd pruned %d .corrupt quarantine files older than %v", pruned, *corruptRet)
	}
	var journalDir string
	if *cacheDir != "" {
		journalDir = filepath.Join(*cacheDir, "v1", "campaigns")
	}
	mgr := engine.NewCampaignManager(eng, engine.CampaignManagerOptions{
		Dir:       journalDir,
		MaxActive: *maxCamps,
	})
	if journalDir != "" {
		if pruned := mgr.PruneJournals(*journalRet); pruned > 0 {
			log.Printf("malecd pruned %d campaign journals older than %v", pruned, *journalRet)
		}
		completed, resumed, err := mgr.Replay()
		if err != nil {
			log.Printf("malecd journal replay: %v", err)
		}
		if completed > 0 || resumed > 0 {
			log.Printf("malecd replayed campaign journals: %d completed, %d resumed", completed, resumed)
		}
	}
	api := server.New(eng, server.Options{
		MaxInstructions:      *maxInstr,
		RequestTimeout:       *reqTimeout,
		MaxConcurrent:        concurrent,
		MaxQueueDepth:        *maxQueue,
		MaxQueueWait:         *queueWait,
		PerClientConcurrency: *perClient,
		Campaigns:            mgr,
	})
	if fp := faultinject.Active(); len(fp) > 0 {
		log.Printf("malecd FAULT INJECTION ARMED: %v", fp)
	}

	var handler http.Handler = api
	if *pprofOn {
		// The API keeps its own mux; pprof mounts beside it so profiling
		// is a flag away but never exposed by default.
		mux := http.NewServeMux()
		mux.Handle("/", api)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Simulations and campaign result streams legitimately take a
		// while, so no write timeout; only bound header reads against
		// slow-loris clients.
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain: Shutdown stops the
	// listener immediately and waits for in-flight handlers up to the
	// drain window. Killing mid-request would poison every load-test
	// tail (and any client retry logic) with spurious connection resets.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("malecd listening on %s (cache-dir=%q, pprof=%v)", *addr, *cacheDir, *pprofOn)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatal(err) // bind failure or listener error before any signal
	case <-ctx.Done():
	}
	stop()
	// Drain sequence: fail /readyz (and start shedding new simulation
	// requests with 503) first, give load balancers -drain-grace to notice,
	// then close the listener and wait out in-flight handlers.
	api.StartDraining()
	if *drainGrace > 0 {
		log.Printf("malecd drain grace %v (readyz failing)", *drainGrace)
		time.Sleep(*drainGrace)
	}
	log.Printf("malecd draining (timeout %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("malecd shutdown: %v", err)
		srv.Close() //nolint:errcheck // best-effort hard stop after drain timeout
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("malecd listener: %v", err)
	}
	log.Printf("malecd stopped cleanly")
}
