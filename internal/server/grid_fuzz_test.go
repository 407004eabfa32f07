package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/trace"
)

// blockingSim simulates nothing: it waits for its unit to be cancelled,
// so a campaign started by the fuzz target never completes a point.
func blockingSim(ctx context.Context, _ []engine.Job) ([]cpu.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// FuzzGridValidation posts arbitrary bodies to POST /v1/campaigns, through
// readBody, resolveGrid and the campaign manager's Start, on an engine
// whose simulator never finishes a point. Every body must answer 202, 400,
// 413 or 429, never a 500 or a panic. Every accepted grid must expand to
// at most maxGridJobs jobs over registry configs (with the request's valid
// schedule, if any) and known benchmarks, at no more than
// MaxInstructions; the target then cancels it and waits for it to stop.
// Each input gets its own engine, manager and server, so no state carries
// between inputs.
func FuzzGridValidation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := engine.New(engine.Options{Workers: 1, Simulate: blockingSim})
		camps := engine.NewCampaignManager(eng, engine.CampaignManagerOptions{})
		srv := New(eng, Options{Campaigns: camps})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(data)))

		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("body %q: status %d %s", data, rec.Code, rec.Body)
		}
		var st engine.CampaignStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("body %q: 202 with an undecodable status %q: %v", data, rec.Body, err)
		}
		run, ok := camps.Get(st.ID)
		if !ok {
			t.Fatalf("body %q: 202 names campaign %q, which the manager does not know", data, st.ID)
		}
		defer stopCampaign(t, camps, run)

		spec := run.Spec()
		if st.Total > maxGridJobs || st.Total != len(spec.Configs)*len(spec.Benchmarks)*len(spec.Seeds) {
			t.Fatalf("body %q: accepted %d jobs (%d configs x %d benchmarks x %d seeds), limit %d",
				data, st.Total, len(spec.Configs), len(spec.Benchmarks), len(spec.Seeds), maxGridJobs)
		}
		for _, cfg := range spec.Configs {
			reg, ok := config.Named(cfg.Name)
			if !ok {
				t.Fatalf("body %q: accepted config %q, not in the registry", data, cfg.Name)
			}
			if cfg.Sampling != nil && !cfg.Sampling.Valid() {
				t.Fatalf("body %q: accepted the invalid schedule %+v", data, *cfg.Sampling)
			}
			reg.Sampling = cfg.Sampling
			if !reflect.DeepEqual(cfg, reg) {
				t.Fatalf("body %q: accepted config %q differs from its registry entry", data, cfg.Name)
			}
		}
		for _, b := range spec.Benchmarks {
			if _, ok := trace.Profiles[b]; !ok {
				t.Fatalf("body %q: accepted unknown benchmark %q", data, b)
			}
		}
		if spec.Instructions <= 0 || spec.Instructions > srv.opts.MaxInstructions {
			t.Fatalf("body %q: accepted %d instructions, limit %d", data, spec.Instructions, srv.opts.MaxInstructions)
		}
	})
}

// stopCampaign cancels run and waits until it is no longer running.
func stopCampaign(t *testing.T, camps *engine.CampaignManager, run *engine.CampaignRun) {
	t.Helper()
	camps.Cancel(run.ID())
	deadline := time.After(10 * time.Second)
	for {
		_, state, changed := run.RecordsAfter(0)
		if state != engine.CampaignRunning {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("campaign %s still running 10 s after its cancel", run.ID())
		}
	}
}
