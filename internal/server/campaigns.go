package server

// Durable-campaign routes: a config x benchmark x seed grid run
// asynchronously behind a first-class handle. They are the only way to run
// a grid over HTTP.
//
//	POST   /v1/campaigns               submit a grid, get a handle (202)
//	GET    /v1/campaigns               list campaign statuses
//	GET    /v1/campaigns/{id}          one campaign's status/progress
//	GET    /v1/campaigns/{id}/results  stream completed points as NDJSON,
//	                                   resumable via ?after=<cursor>;
//	                                   ?format=json|csv exports the final
//	                                   deterministic artifact once done
//	DELETE /v1/campaigns/{id}          cancel (resumes on daemon restart)
//
// Campaign submissions bypass the admission gate: the gate bounds
// synchronous request-scoped simulation work, while campaigns are bounded
// by the manager's MaxActive (429 past it) and execute on the engine's own
// worker pool. Result streams hold no simulation capacity either — every
// record they serve is a cache or disk-store hit.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"malec/internal/config"
	"malec/internal/engine"
	"malec/internal/trace"
)

// maxGridJobs caps the number of jobs one campaign may expand to.
const maxGridJobs = 4096

// campaignRequest is the POST /v1/campaigns body.
type campaignRequest struct {
	Configs      []string `json:"configs"`
	Benchmarks   []string `json:"benchmarks"`
	Instructions int      `json:"instructions"`
	Seeds        []uint64 `json:"seeds"`
	// Sampling, when present, runs every point of the grid on the
	// sampled fast path — the quality tier for large grids: the configs
	// of one memory side run as one pass per (benchmark, seed), which
	// pays the functional warming once for all of them.
	Sampling *config.Sampling `json:"sampling"`
	// Retries bounds per-job retry attempts before a point is declared
	// failed (default: the manager's default, 2).
	Retries int `json:"retries"`
}

// resolveGrid validates a campaign's grid against the registry and
// limits, returning the resolved configs. req.Instructions is normalized
// in place to its effective value (mirroring CampaignSpec.normalize), so
// the limit check and the campaign spec can never disagree.
func (s *Server) resolveGrid(req *campaignRequest) ([]config.Config, error) {
	if len(req.Configs) == 0 {
		return nil, fmt.Errorf("configs is required (see /v1/configs)")
	}
	if err := validSampling(req.Sampling); err != nil {
		return nil, err
	}
	cfgs := make([]config.Config, 0, len(req.Configs))
	for _, name := range req.Configs {
		cfg, ok := config.Named(name)
		if !ok {
			return nil, fmt.Errorf("unknown config %q (see /v1/configs)", name)
		}
		cfg.Sampling = req.Sampling
		cfgs = append(cfgs, cfg)
	}
	// Unknown benchmarks and repeated configs, benchmarks and seeds are
	// rejected by CampaignSpec's validation — no duplicate validation
	// here, so the two can't drift.
	if req.Instructions <= 0 {
		req.Instructions = engine.DefaultInstructions
	}
	if req.Instructions > s.opts.MaxInstructions {
		return nil, fmt.Errorf("instructions %d exceeds limit %d", req.Instructions, s.opts.MaxInstructions)
	}
	benchmarks := len(req.Benchmarks)
	if benchmarks == 0 {
		benchmarks = len(trace.AllBenchmarks())
	}
	seeds := len(req.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	if jobs := len(cfgs) * benchmarks * seeds; jobs > maxGridJobs {
		return nil, fmt.Errorf("campaign expands to %d jobs, limit %d", jobs, maxGridJobs)
	}
	return cfgs, nil
}

// handleCampaignCreate implements POST /v1/campaigns: validate the grid,
// register a durable campaign, return its handle immediately.
func (s *Server) handleCampaignCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req campaignRequest
	if !readBody(w, r, &req) {
		return
	}
	cfgs, err := s.resolveGrid(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, err := s.camps.Start(engine.CampaignSpec{
		Configs:      cfgs,
		Benchmarks:   req.Benchmarks,
		Instructions: req.Instructions,
		Seeds:        req.Seeds,
		Retries:      req.Retries,
	})
	if err != nil {
		if errors.Is(err, engine.ErrTooManyCampaigns) {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Status())
}

// handleCampaignList implements GET /v1/campaigns.
func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	runs := s.camps.List()
	statuses := make([]engine.CampaignStatus, 0, len(runs))
	for _, run := range runs {
		statuses = append(statuses, run.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": statuses})
}

// campaign resolves the {id} path value, writing 404 on a miss.
func (s *Server) campaign(w http.ResponseWriter, r *http.Request) (*engine.CampaignRun, bool) {
	id := r.PathValue("id")
	run, ok := s.camps.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", id)
	}
	return run, ok
}

// handleCampaignStatus implements GET /v1/campaigns/{id}.
func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := s.campaign(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, run.Status())
}

// handleCampaignCancel implements DELETE /v1/campaigns/{id}: stop the
// campaign's remaining work. The journal stays (without a completion
// marker), so a daemon restart resumes the campaign; retention prunes it.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.campaign(w, r)
	if !ok {
		return
	}
	s.camps.Cancel(run.ID())
	writeJSON(w, http.StatusOK, run.Status())
}

// resultLine is one streamed NDJSON record: the resume cursor followed by
// the point's result, flat (the same fields as an export row).
type resultLine struct {
	Seq uint64 `json:"seq"`
	engine.JobResult
}

// heartbeatLine keeps an idle stream's connection warm and tells the
// client the cursor it would resume from.
type heartbeatLine struct {
	Heartbeat bool   `json:"heartbeat"`
	Cursor    uint64 `json:"cursor"`
}

// doneLine terminates a stream whose campaign reached a terminal state.
type doneLine struct {
	Done      bool                 `json:"done"`
	State     engine.CampaignState `json:"state"`
	Cursor    uint64               `json:"cursor"`
	Completed int                  `json:"completed"`
	Failed    int                  `json:"failed"`
}

// handleCampaignResults implements GET /v1/campaigns/{id}/results: by
// default an NDJSON stream of completed points from cursor ?after (live —
// it follows the campaign until done); with ?format=json|csv the final
// byte-identical export, available only once the campaign is done (409
// before that).
func (s *Server) handleCampaignResults(w http.ResponseWriter, r *http.Request) {
	run, ok := s.campaign(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid cursor %q", v)
			return
		}
		after = n
	}
	if !run.ValidCursor(after) {
		writeError(w, http.StatusBadRequest,
			"cursor %d was never issued by campaign %s (status cursor tells you the latest)", after, run.ID())
		return
	}
	switch q.Get("format") {
	case "", "ndjson":
		s.streamResults(w, r, run, after)
	case "json", "csv":
		s.exportResults(w, r, run, q.Get("format"))
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (ndjson, json or csv)", q.Get("format"))
	}
}

// streamResults follows a campaign from a cursor: drain everything already
// recorded, then block for new completions, emitting heartbeats while
// idle. Each record line carries its cursor, so a disconnected client
// resumes with ?after=<last seq seen> and misses nothing — records are
// fetched from the engine (memory/disk hits), never recomputed.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, run *engine.CampaignRun, after uint64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	enc := json.NewEncoder(w)
	hb := time.NewTimer(s.heartbeat)
	defer hb.Stop()
	cursor := after
	for {
		recs, state, changed := run.RecordsAfter(cursor)
		for _, rec := range recs {
			jr, err := run.Fetch(r.Context(), rec)
			if err != nil {
				return // disconnect or engine failure: the client re-resumes
			}
			if enc.Encode(resultLine{Seq: rec.Seq, JobResult: jr}) != nil {
				return
			}
			cursor = rec.Seq
		}
		if len(recs) > 0 {
			flush()
		}
		if state != engine.CampaignRunning {
			st := run.Status()
			enc.Encode(doneLine{ //nolint:errcheck // terminal line; nothing left to report
				Done:      true,
				State:     state,
				Cursor:    cursor,
				Completed: st.Completed,
				Failed:    st.Failed,
			})
			flush()
			return
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(s.heartbeat)
		select {
		case <-changed:
		case <-hb.C:
			if enc.Encode(heartbeatLine{Heartbeat: true, Cursor: cursor}) != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// exportResults serves the campaign's final deterministic artifact. Only a
// done campaign exports (409 otherwise): a partial export could never be
// byte-identical to the finished one.
func (s *Server) exportResults(w http.ResponseWriter, r *http.Request, run *engine.CampaignRun, format string) {
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	camp, err := run.Export(ctx)
	if err != nil {
		if errors.Is(err, engine.ErrCampaignNotDone) {
			writeError(w, http.StatusConflict,
				"campaign %s is %s; exports require state done (stream with the default format instead)",
				run.ID(), run.Status().State)
			return
		}
		s.writeSimError(w, err)
		return
	}
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		camp.WriteCSV(w) //nolint:errcheck // headers sent; nothing left to report
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":    len(camp.Results),
		"results": camp.Results,
	})
}
