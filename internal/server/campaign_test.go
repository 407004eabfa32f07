package server

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
)

// stubSim is a deterministic simulate stub for campaign tests.
func stubSim(cfg config.Config, b string, n int, s uint64) cpu.Result {
	return cpu.Result{
		Config:       cfg.Name,
		Benchmark:    b,
		Instructions: uint64(n),
		Cycles:       uint64(n)*2 + s,
	}
}

// newCampaignServer wires a server over a fresh engine and campaign
// manager with full control of both option sets.
func newCampaignServer(t *testing.T, sim func(cfg config.Config, b string, n int, s uint64) cpu.Result, mgrOpts engine.CampaignManagerOptions) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4, Simulate: plain(sim)})
	ts := httptest.NewServer(New(eng, Options{Campaigns: engine.NewCampaignManager(eng, mgrOpts)}))
	t.Cleanup(ts.Close)
	return ts, eng
}

// streamLine is the decoded superset of every NDJSON line shape.
type streamLine struct {
	Seq       uint64 `json:"seq"`
	Index     *int   `json:"index"`
	Config    string `json:"config"`
	Benchmark string `json:"benchmark"`
	Seed      uint64 `json:"seed"`
	Error     string `json:"error"`
	Heartbeat bool   `json:"heartbeat"`
	Done      bool   `json:"done"`
	State     string `json:"state"`
	Cursor    uint64 `json:"cursor"`
}

// readStream consumes one results stream to its done line.
func readStream(t *testing.T, url string) (records []streamLine, heartbeats int, done streamLine) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Done:
			return records, heartbeats, line
		case line.Heartbeat:
			heartbeats++
		default:
			records = append(records, line)
		}
	}
	t.Fatalf("stream %s ended without a done line (read %d records): %v", url, len(records), sc.Err())
	return nil, 0, streamLine{}
}

const campaignBody = `{"configs":["MALEC"],"benchmarks":["gzip","mcf"],"instructions":2000,"seeds":[1,2]}`

func TestCampaignLifecycleAndStreamResume(t *testing.T) {
	ts, _ := newCampaignServer(t, stubSim, engine.CampaignManagerOptions{})

	resp, body := post(t, ts.URL+"/v1/campaigns",
		`{"configs":["Base1ldst","MALEC"],"benchmarks":["gzip","mcf"],"instructions":2000,"seeds":[1,2]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d body %s", resp.StatusCode, body)
	}
	var st engine.CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("create reply %s: %v", body, err)
	}
	if st.Total != 8 {
		t.Fatalf("campaign total %d, want 8", st.Total)
	}

	// The full stream delivers every record exactly once, then done.
	records, _, done := readStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/results")
	if len(records) != 8 {
		t.Fatalf("streamed %d records, want 8", len(records))
	}
	for i, rec := range records {
		if rec.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d, want dense monotonic cursors", i, rec.Seq)
		}
		if rec.Config == "" || rec.Benchmark == "" {
			t.Fatalf("record %d missing job identity: %+v", i, rec)
		}
	}
	if done.State != string(engine.CampaignDone) || done.Cursor != 8 {
		t.Fatalf("done line %+v", done)
	}

	// Resume from a mid-stream cursor: exactly the remainder, no replays.
	records, _, _ = readStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/results?after=6")
	if len(records) != 2 || records[0].Seq != 7 || records[1].Seq != 8 {
		t.Fatalf("resume after=6 streamed %+v, want seqs 7,8", records)
	}
	// Resume from the end: just the done line.
	records, _, done = readStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/results?after=8")
	if len(records) != 0 || !done.Done {
		t.Fatalf("resume after=8 streamed %d records", len(records))
	}

	// Status reflects completion; the list includes the campaign.
	var got engine.CampaignStatus
	get(t, ts.URL+"/v1/campaigns/"+st.ID, &got)
	if got.State != engine.CampaignDone || got.Completed != 8 || got.Cursor != 8 {
		t.Fatalf("status %+v", got)
	}
	var list struct {
		Campaigns []engine.CampaignStatus `json:"campaigns"`
	}
	get(t, ts.URL+"/v1/campaigns", &list)
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != st.ID {
		t.Fatalf("list %+v", list)
	}
}

// TestSweepJSONAndCSV checks a finished grid's two exports: JSON rows in
// expansion order (config, then benchmark, then seed) and CSV with its
// header and then one row per point in the same order.
func TestSweepJSONAndCSV(t *testing.T) {
	ts, _ := newCampaignServer(t, stubSim, engine.CampaignManagerOptions{})
	resp, body := post(t, ts.URL+"/v1/campaigns",
		`{"configs":["Base1ldst","MALEC"],"benchmarks":["gzip","mcf"],"instructions":1000,"seeds":[1,2]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d body %s", resp.StatusCode, body)
	}
	var st engine.CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("create reply %s: %v", body, err)
	}
	if _, _, done := readStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/results"); done.State != string(engine.CampaignDone) {
		t.Fatalf("campaign ended %+v", done)
	}
	// The export order: config-major, then benchmark, then seed.
	var order []string
	for _, c := range []string{"Base1ldst", "MALEC"} {
		for _, b := range []string{"gzip", "mcf"} {
			for _, s := range []string{"1", "2"} {
				order = append(order, c+"/"+b+"/"+s)
			}
		}
	}

	// Final exports: JSON in deterministic expansion order, CSV with its
	// header and then a row per point in the same order.
	var exp struct {
		Jobs    int `json:"jobs"`
		Results []struct {
			Index     int            `json:"index"`
			Config    string         `json:"config"`
			Benchmark string         `json:"benchmark"`
			Seed      uint64         `json:"seed"`
			Source    string         `json:"source"`
			Result    map[string]any `json:"result"`
		} `json:"results"`
	}
	if resp := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/results?format=json", &exp); resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	if exp.Jobs != 8 || len(exp.Results) != 8 {
		t.Fatalf("export jobs=%d results=%d", exp.Jobs, len(exp.Results))
	}
	for i, r := range exp.Results {
		if r.Index != i {
			t.Fatalf("export row %d has index %d; exports must be in expansion order", i, r.Index)
		}
		if got := fmt.Sprintf("%s/%s/%d", r.Config, r.Benchmark, r.Seed); got != order[i] {
			t.Fatalf("export row %d is %s, want %s", i, got, order[i])
		}
		if r.Source != "" {
			t.Fatalf("export row %d leaks source %q; exports must be source-normalized for byte identity", i, r.Source)
		}
	}
	csvResp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer csvResp.Body.Close()
	if csvResp.StatusCode != http.StatusOK || csvResp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("csv export status %d type %q", csvResp.StatusCode, csvResp.Header.Get("Content-Type"))
	}
	rows, err := csv.NewReader(csvResp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // header + 8 points
		t.Fatalf("csv has %d rows, want 9", len(rows))
	}
	if got := strings.Join(rows[0][:4], ","); got != "config,benchmark,instructions,seed" {
		t.Fatalf("csv header starts %q", got)
	}
	for i, row := range rows[1:] {
		if got := row[0] + "/" + row[1] + "/" + row[3]; got != order[i] {
			t.Fatalf("csv row %d is %s, want %s", i+1, got, order[i])
		}
	}
}

// TestCampaignGridValidation checks that a campaign body naming no
// config, an unknown config or benchmark, or more than maxGridJobs points
// is refused with 400 and the reason, before anything runs.
func TestCampaignGridValidation(t *testing.T) {
	ts, eng := newCampaignServer(t, stubSim, engine.CampaignManagerOptions{})
	seeds := make([]string, maxGridJobs+1)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	for _, c := range []struct {
		name, body, msg string
	}{
		{"no configs", `{"benchmarks":["gzip"]}`,
			"configs is required (see /v1/configs)"},
		{"unknown config", `{"configs":["NoSuch"]}`,
			`unknown config "NoSuch" (see /v1/configs)`},
		{"unknown benchmark", `{"configs":["MALEC"],"benchmarks":["nope"]}`,
			`engine: unknown benchmark "nope"`},
		{"too many jobs", `{"configs":["MALEC"],"benchmarks":["gzip"],"seeds":[` + strings.Join(seeds, ",") + `]}`,
			fmt.Sprintf("campaign expands to %d jobs, limit %d", maxGridJobs+1, maxGridJobs)},
	} {
		resp, raw := post(t, ts.URL+"/v1/campaigns", c.body)
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s: no error envelope in %s", c.name, raw)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error != c.msg {
			t.Errorf("%s: %d %q, want 400 %q", c.name, resp.StatusCode, e.Error, c.msg)
		}
	}
	if st := eng.Stats(); st.Simulations != 0 {
		t.Fatalf("refused campaigns ran %d simulations", st.Simulations)
	}
}

// TestCampaignDefaultInstructionsRespectsLimit guards against the default
// instruction count (300000) sneaking past a lower operator limit when the
// campaign body omits the field.
func TestCampaignDefaultInstructionsRespectsLimit(t *testing.T) {
	ts, _ := newTestServer(t, stubSim, Options{MaxInstructions: 100000})
	resp, body := post(t, ts.URL+"/v1/campaigns", `{"configs":["MALEC"],"benchmarks":["gzip"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("campaign with omitted instructions under a 100k limit: status %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "300000 exceeds limit 100000") {
		t.Fatalf("error does not name the effective default: %s", body)
	}
}

func TestCampaignValidationAndBackpressure(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(release)
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		<-gate
		return stubSim(cfg, b, n, s)
	}
	ts, _ := newCampaignServer(t, sim, engine.CampaignManagerOptions{MaxActive: 1})

	if resp, body := post(t, ts.URL+"/v1/campaigns", `{"configs":["nope"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown config: status %d body %s", resp.StatusCode, body)
	}
	if resp := get(t, ts.URL+"/v1/campaigns/deadbeef", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}

	resp, body := post(t, ts.URL+"/v1/campaigns", campaignBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d %s", resp.StatusCode, body)
	}
	var st engine.CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Active-campaign bound: the second submission sheds with 429.
	resp2, _ := post(t, ts.URL+"/v1/campaigns", campaignBody)
	if resp2.StatusCode != http.StatusTooManyRequests || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("over MaxActive: status %d Retry-After %q", resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}

	// Cursor validation: non-numeric and never-issued cursors are 400.
	for _, after := range []string{"abc", "999"} {
		if resp := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/results?after="+after, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("after=%s: status %d, want 400", after, resp.StatusCode)
		}
	}
	if resp := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/results?format=xml", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: status %d, want 400", resp.StatusCode)
	}

	// Exports gate on completion: 409 while running.
	if resp := get(t, ts.URL+"/v1/campaigns/"+st.ID+"/results?format=json", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("export while running: status %d, want 409", resp.StatusCode)
	}

	// Cancel stops the campaign; its status turns cancelled.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got engine.CampaignStatus
		get(t, ts.URL+"/v1/campaigns/"+st.ID, &got)
		if got.State == engine.CampaignCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never cancelled: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCampaignStreamHeartbeat(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(release)
	sim := func(cfg config.Config, b string, n int, s uint64) cpu.Result {
		<-gate
		return stubSim(cfg, b, n, s)
	}
	eng := engine.New(engine.Options{Workers: 4, Simulate: plain(sim)})
	srv := New(eng, Options{})
	srv.heartbeat = 20 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	_, body := post(t, ts.URL+"/v1/campaigns", campaignBody)
	var st engine.CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	// With every simulation blocked, the stream must keep the connection
	// alive with heartbeats; after release it must finish normally.
	go func() {
		time.Sleep(120 * time.Millisecond)
		release()
	}()
	records, heartbeats, done := readStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/results")
	if heartbeats == 0 {
		t.Fatal("idle stream emitted no heartbeats")
	}
	if len(records) != 4 || !done.Done {
		t.Fatalf("stream after release: %d records, done=%v", len(records), done.Done)
	}
}
