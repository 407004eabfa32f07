package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it. A child
// span times the inner layer's call on the same input separately, so it
// need not nest in time inside its parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Point  string `json:"point"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: processStart} }

// add records a finished span and returns its id (ids start at 1; parent 0
// means a root span).
func (t *tracer) add(name, point string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Point: point,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open starts a span that close ends, for spans whose children are
// recorded before they end.
func (t *tracer) open(name, point string, parent int) int {
	now := time.Now()
	return t.add(name, point, parent, now, now)
}

func (t *tracer) close(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs fn as a span and returns its id and duration.
func (t *tracer) timed(name, point string, parent int, fn func() error) (int, time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	return t.add(name, point, parent, t0, t1), t1.Sub(t0), err
}

// write stores the spans as JSON lines under the build directory.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
