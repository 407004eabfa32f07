package engine

// Durable campaigns: first-class campaign objects that survive client
// disconnects, job failures and `kill -9` of the hosting process. A
// CampaignManager owns a set of CampaignRuns, each executing its job grid
// asynchronously through the shared engine while journaling every terminal
// point (journal.go). Completed points stream to any number of concurrent
// readers as monotonic-cursor records; the final JSON/CSV export is
// materialized from the content-addressed result store in deterministic
// expansion order, so it is byte-identical no matter how many times the
// campaign was interrupted, streamed, killed and resumed.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CampaignState is a campaign's lifecycle phase.
type CampaignState string

// Campaign lifecycle states. A cancelled campaign writes no completion
// marker: like a crash, it is re-admitted and resumed on the next restart
// (cancel stops the burn now; delete-on-disk semantics belong to journal
// retention).
const (
	CampaignRunning   CampaignState = "running"
	CampaignDone      CampaignState = "done"
	CampaignCancelled CampaignState = "cancelled"
)

// ErrTooManyCampaigns reports that the manager's active-campaign bound is
// reached; the caller should shed with backpressure.
var ErrTooManyCampaigns = errors.New("engine: too many active campaigns")

// ErrCampaignNotDone reports an export requested before every point is
// terminal; partial exports would break the byte-identity guarantee.
var ErrCampaignNotDone = errors.New("engine: campaign is not complete")

// CampaignManagerOptions configures a CampaignManager.
type CampaignManagerOptions struct {
	// Dir is the journal root (conventionally <cacheDir>/v1/campaigns).
	// Empty runs campaigns in memory only: still asynchronous and
	// streamable, but not crash-durable.
	Dir string
	// MaxActive bounds concurrently running campaigns (default 8);
	// Start returns ErrTooManyCampaigns past it.
	MaxActive int
}

// defaultRetries is the per-job retry bound of a campaign whose spec
// leaves Retries unset.
const defaultRetries = 2

// CampaignManagerStats is a snapshot of the manager's counters.
type CampaignManagerStats struct {
	// Active is the number of campaigns currently running.
	Active int `json:"active"`
	// Campaigns is the number of campaigns known (running + finished).
	Campaigns int `json:"campaigns"`
	// Retries counts per-job retry attempts across all campaigns.
	Retries uint64 `json:"retries"`
	// FailedPoints counts jobs that exhausted their retries.
	FailedPoints uint64 `json:"failedPoints"`
	// ReplayedPoints counts journaled terminal points re-admitted at
	// startup without recomputation.
	ReplayedPoints uint64 `json:"replayedPoints"`
	// JournalTorn counts torn/corrupt journal tail bytes truncated away
	// during replay.
	JournalTorn uint64 `json:"journalTorn"`
	// JournalsPruned counts completed campaign journals removed by
	// retention sweeps.
	JournalsPruned uint64 `json:"journalsPruned"`
}

// CampaignManager registers, executes, journals and resumes campaigns over
// one engine. Safe for concurrent use.
type CampaignManager struct {
	eng       *Engine
	dir       string
	maxActive int

	retriesTotal  atomic.Uint64
	failedTotal   atomic.Uint64
	replayedTotal atomic.Uint64
	tornTotal     atomic.Uint64
	prunedTotal   atomic.Uint64

	mu   sync.Mutex
	runs map[string]*CampaignRun
}

// NewCampaignManager returns a manager executing campaigns on eng.
func NewCampaignManager(eng *Engine, opts CampaignManagerOptions) *CampaignManager {
	if opts.MaxActive <= 0 {
		opts.MaxActive = 8
	}
	return &CampaignManager{
		eng:       eng,
		dir:       opts.Dir,
		maxActive: opts.MaxActive,
		runs:      make(map[string]*CampaignRun),
	}
}

// Stats returns a snapshot of the manager counters.
func (m *CampaignManager) Stats() CampaignManagerStats {
	s := CampaignManagerStats{
		Retries:        m.retriesTotal.Load(),
		FailedPoints:   m.failedTotal.Load(),
		ReplayedPoints: m.replayedTotal.Load(),
		JournalTorn:    m.tornTotal.Load(),
		JournalsPruned: m.prunedTotal.Load(),
	}
	m.mu.Lock()
	s.Campaigns = len(m.runs)
	for _, r := range m.runs {
		if r.Status().State == CampaignRunning {
			s.Active++
		}
	}
	m.mu.Unlock()
	return s
}

// newCampaignID returns a fresh 16-hex-character campaign handle.
func newCampaignID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("engine: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// active counts running campaigns. Caller holds m.mu.
func (m *CampaignManager) active() int {
	n := 0
	for _, r := range m.runs {
		r.mu.Lock()
		if r.state == CampaignRunning {
			n++
		}
		r.mu.Unlock()
	}
	return n
}

// Start registers a campaign, journals its manifest, and begins executing
// it asynchronously. The returned run is immediately streamable.
func (m *CampaignManager) Start(spec CampaignSpec) (*CampaignRun, error) {
	if spec.Retries == 0 {
		spec.Retries = defaultRetries
	}
	spec, err := spec.normalize(m.eng.Workers())
	if err != nil {
		return nil, err
	}
	spec.Progress = nil // durable campaigns report through their records
	id := newCampaignID()
	run := m.newRun(id, time.Now().UTC(), spec)

	m.mu.Lock()
	if m.active() >= m.maxActive {
		m.mu.Unlock()
		return nil, ErrTooManyCampaigns
	}
	m.runs[id] = run
	m.mu.Unlock()

	if m.dir != "" {
		jr, err := createJournal(m.dir, journalManifest{
			Version: JournalFormatVersion,
			ID:      id,
			Created: run.created,
			Spec: journalSpec{
				Configs:      spec.Configs,
				Benchmarks:   spec.Benchmarks,
				Instructions: spec.Instructions,
				Seeds:        spec.Seeds,
				Retries:      spec.Retries,
			},
		})
		if err != nil {
			m.mu.Lock()
			delete(m.runs, id)
			m.mu.Unlock()
			return nil, fmt.Errorf("engine: campaign journal: %w", err)
		}
		run.jr = jr
	}
	run.start()
	return run, nil
}

// Get returns a registered campaign by handle.
func (m *CampaignManager) Get(id string) (*CampaignRun, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// List returns every registered campaign, oldest first (creation time,
// then id, so the order is stable).
func (m *CampaignManager) List() []*CampaignRun {
	m.mu.Lock()
	out := make([]*CampaignRun, 0, len(m.runs))
	for _, r := range m.runs {
		out = append(out, r)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].created.Equal(out[j].created) {
			return out[i].created.Before(out[j].created)
		}
		return out[i].id < out[j].id
	})
	return out
}

// Cancel stops a running campaign's remaining work. The journal is left
// without a completion marker, so a later restart resumes the campaign —
// cancellation stops the burn, retention (PruneJournals) removes history.
func (m *CampaignManager) Cancel(id string) bool {
	r, ok := m.Get(id)
	if !ok {
		return false
	}
	return r.cancelRun()
}

// PruneJournals removes completed campaign journals older than maxAge
// (0 keeps everything). Meant for startup, before Replay.
func (m *CampaignManager) PruneJournals(maxAge time.Duration) int {
	n := pruneJournals(m.dir, maxAge)
	m.prunedTotal.Add(uint64(n))
	return n
}

// Replay scans the journal root and re-admits every campaign found there:
// completed ones register for status/stream/export serving, unfinished
// ones (a previous process crashed or was killed mid-campaign) resume
// executing — journaled points are marked terminal without recomputation
// (their results are one content-addressed store hit away), only the
// remainder runs. Returns how many campaigns were loaded completed and
// how many were re-admitted unfinished.
func (m *CampaignManager) Replay() (completed, resumed int, err error) {
	if m.dir == "" {
		return 0, 0, nil
	}
	entries, rerr := os.ReadDir(m.dir)
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return 0, 0, nil
		}
		return 0, 0, rerr
	}
	var firstErr error
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		rj, err := readJournal(filepath.Join(m.dir, ent.Name()))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		spec := CampaignSpec{
			Configs:      rj.manifest.Spec.Configs,
			Benchmarks:   rj.manifest.Spec.Benchmarks,
			Instructions: rj.manifest.Spec.Instructions,
			Seeds:        rj.manifest.Spec.Seeds,
			Retries:      rj.manifest.Spec.Retries,
		}
		spec, err = spec.normalize(m.eng.Workers())
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		run := m.newRun(rj.manifest.ID, rj.manifest.Created, spec)
		run.replay(rj.records)
		m.tornTotal.Add(uint64(rj.torn))
		m.replayedTotal.Add(uint64(len(rj.records)))

		m.mu.Lock()
		m.runs[run.id] = run
		m.mu.Unlock()

		if rj.done != nil {
			run.mu.Lock()
			run.state = rj.done.State
			if run.state == CampaignRunning { // defensive: a marker never says running
				run.state = CampaignDone
			}
			run.mu.Unlock()
			completed++
			continue
		}
		jr, err := reopenJournal(m.dir, run.id)
		if err == nil {
			run.jr = jr
		} else if firstErr == nil {
			firstErr = err
		}
		run.start()
		resumed++
	}
	return completed, resumed, firstErr
}

// CampaignStatus is one campaign's progress snapshot.
type CampaignStatus struct {
	ID      string        `json:"id"`
	State   CampaignState `json:"state"`
	Created time.Time     `json:"created"`
	// Total is the campaign's job count; Completed counts successes,
	// Failed counts points that exhausted their retries.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Retries counts retry attempts consumed by this campaign's jobs.
	Retries int `json:"retries"`
	// Replayed counts terminal points re-admitted from the journal at
	// startup instead of recomputed.
	Replayed int `json:"replayed"`
	// Cursor is the latest stream cursor: `GET …/results?after=<cursor>`
	// resumes exactly past everything already streamed.
	Cursor uint64 `json:"cursor"`
}

// CampaignRun is one executing (or finished) campaign.
type CampaignRun struct {
	id      string
	created time.Time
	spec    CampaignSpec
	jobs    []Job
	m       *CampaignManager
	jr      *journal
	cancel  context.CancelFunc

	mu                                   sync.Mutex
	changed                              chan struct{} // closed and replaced on every mutation
	records                              []StreamRecord
	terminal                             []bool // per job index: success or final failure recorded
	state                                CampaignState
	completed, failed, retries, replayed int
}

// newRun constructs an unstarted run for a normalized spec.
func (m *CampaignManager) newRun(id string, created time.Time, spec CampaignSpec) *CampaignRun {
	jobs := spec.expand()
	return &CampaignRun{
		id:       id,
		created:  created,
		spec:     spec,
		jobs:     jobs,
		m:        m,
		changed:  make(chan struct{}),
		terminal: make([]bool, len(jobs)),
		state:    CampaignRunning,
	}
}

// replay marks journaled records terminal before the run starts.
func (r *CampaignRun) replay(records []StreamRecord) {
	r.records = append(r.records, records...)
	for _, rec := range records {
		if rec.Index < 0 || rec.Index >= len(r.terminal) || r.terminal[rec.Index] {
			continue
		}
		r.terminal[rec.Index] = true
		if rec.Error == "" {
			r.completed++
		} else {
			r.failed++
		}
	}
	r.replayed = len(records)
}

// ID returns the campaign handle.
func (r *CampaignRun) ID() string { return r.id }

// Spec returns the campaign's normalized spec.
func (r *CampaignRun) Spec() CampaignSpec { return r.spec }

// Status returns a progress snapshot.
func (r *CampaignRun) Status() CampaignStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return CampaignStatus{
		ID:        r.id,
		State:     r.state,
		Created:   r.created,
		Total:     len(r.jobs),
		Completed: r.completed,
		Failed:    r.failed,
		Retries:   r.retries,
		Replayed:  r.replayed,
		Cursor:    uint64(len(r.records)),
	}
}

// JobAt returns the job at a campaign index.
func (r *CampaignRun) JobAt(index int) (Job, bool) {
	if index < 0 || index >= len(r.jobs) {
		return Job{}, false
	}
	return r.jobs[index], true
}

// RecordsAfter returns a snapshot of the records past cursor `after`, the
// current state, and a channel closed on the next mutation — everything a
// streaming reader needs to drain, then block without polling.
func (r *CampaignRun) RecordsAfter(after uint64) ([]StreamRecord, CampaignState, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var recs []StreamRecord
	if after < uint64(len(r.records)) {
		recs = append(recs, r.records[after:]...)
	}
	return recs, r.state, r.changed
}

// ValidCursor reports whether `after` is a cursor this campaign has
// issued (0 = from the beginning).
func (r *CampaignRun) ValidCursor(after uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return after <= uint64(len(r.records))
}

// notify wakes every waiting streamer. Caller holds r.mu.
func (r *CampaignRun) notify() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// start launches the runner goroutine.
func (r *CampaignRun) start() {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.run(ctx)
}

// cancelRun stops a running campaign; reports whether it was running.
func (r *CampaignRun) cancelRun() bool {
	r.mu.Lock()
	running := r.state == CampaignRunning
	r.mu.Unlock()
	if running && r.cancel != nil {
		r.cancel()
	}
	return running
}

// run executes every non-terminal job, records each terminal outcome
// (journal + stream), and finalizes the campaign. One job exhausting its
// retries degrades the campaign to partial-with-errors; only cancellation
// stops it early.
func (r *CampaignRun) run(ctx context.Context) {
	defer r.cancel()
	var remaining []Job
	r.mu.Lock()
	for i, j := range r.jobs {
		if !r.terminal[i] {
			remaining = append(remaining, j)
		}
	}
	r.mu.Unlock()

	r.m.eng.runJobs(ctx, remaining, r.spec.Workers, r.spec.Retries,
		func(jr JobResult, attempts int, err error) {
			if err != nil && isCancellation(err) {
				return // not terminal: the point re-runs on resume
			}
			r.record(jr, attempts, err)
		})

	r.mu.Lock()
	if ctx.Err() != nil {
		r.state = CampaignCancelled
		r.notify()
		r.mu.Unlock()
		// No completion marker: a cancelled campaign resumes on restart,
		// exactly like a crashed one.
		r.jr.close() //nolint:errcheck // best-effort
		return
	}
	mark := doneMarker{
		State:     CampaignDone,
		Completed: r.completed,
		Failed:    r.failed,
		Finished:  time.Now().UTC(),
	}
	r.mu.Unlock()
	// Publish the marker before the state, so a client that sees the
	// campaign done also finds it marked done after a restart.
	r.jr.finish(mark) //nolint:errcheck // best-effort: an unmarked done campaign replays as resumed and finds every point cached
	r.mu.Lock()
	r.state = CampaignDone
	r.notify()
	r.mu.Unlock()
}

// record captures one terminal outcome: assign the next cursor, journal
// the record, update counters, wake streamers. Calls arrive serialized
// (runJobs serializes onDone).
func (r *CampaignRun) record(jr JobResult, attempts int, err error) {
	r.mu.Lock()
	rec := StreamRecord{
		Seq:   uint64(len(r.records)) + 1,
		Index: jr.Index,
		Key:   jr.Key,
	}
	if err != nil {
		rec.Error = err.Error()
		r.failed++
	} else {
		r.completed++
	}
	r.retries += attempts
	r.records = append(r.records, rec)
	if jr.Index >= 0 && jr.Index < len(r.terminal) {
		r.terminal[jr.Index] = true
	}
	r.notify()
	r.mu.Unlock()

	if attempts > 0 {
		r.m.retriesTotal.Add(uint64(attempts))
	}
	if err != nil {
		r.m.failedTotal.Add(1)
	}
	r.jr.append(rec) //nolint:errcheck // best-effort: a dropped record re-runs as a store hit after restart
}

// Fetch materializes the result behind one stream record by running its
// key back through the engine — a memory or disk hit for anything already
// computed, including every journal-replayed point.
func (r *CampaignRun) Fetch(ctx context.Context, rec StreamRecord) (JobResult, error) {
	job, ok := r.JobAt(rec.Index)
	if !ok {
		return JobResult{}, fmt.Errorf("engine: campaign %s has no job index %d", r.id, rec.Index)
	}
	if rec.Error != "" {
		return JobResult{Job: job, Error: rec.Error}, nil
	}
	res, src, err := r.m.eng.RunContext(ctx, job.Config, job.Benchmark, job.Instructions, job.Seed)
	if err != nil {
		return JobResult{}, err
	}
	return JobResult{Job: job, Source: src, Result: res}, nil
}

// Export materializes the campaign's final results in deterministic
// expansion order. Every completed point is fetched back through the
// engine (memory or disk hits; a lost store entry deterministically
// recomputes), and the served Source is cleared — the export is the
// durable artifact, byte-identical no matter how often the campaign was
// interrupted, killed and resumed. Exporting before the campaign is done
// returns ErrCampaignNotDone.
func (r *CampaignRun) Export(ctx context.Context) (*Campaign, error) {
	r.mu.Lock()
	if r.state != CampaignDone {
		r.mu.Unlock()
		return nil, ErrCampaignNotDone
	}
	failedBy := make(map[int]string, r.failed)
	for _, rec := range r.records {
		if rec.Error != "" {
			failedBy[rec.Index] = rec.Error
		}
	}
	r.mu.Unlock()

	results := make([]JobResult, 0, len(r.jobs))
	for _, j := range r.jobs {
		if msg, ok := failedBy[j.Index]; ok {
			results = append(results, JobResult{Job: j, Error: msg})
			continue
		}
		res, _, err := r.m.eng.RunContext(ctx, j.Config, j.Benchmark, j.Instructions, j.Seed)
		if err != nil {
			return nil, err
		}
		results = append(results, JobResult{Job: j, Result: res})
	}
	return &Campaign{Spec: r.spec, Results: results}, nil
}
