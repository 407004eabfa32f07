package engine

// The engine's keyed store. The result cache, the poisoned-key quarantine
// and the warmed-checkpoint store keep their memory tier in one bounded
// insertion-order map; the result and checkpoint stores read their disk
// entries through one reader; and every whole file the engine writes
// (cache entries, campaign manifests and done markers) is published
// through one routine.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"malec/internal/faultinject"
)

// fifo is a map bounded by insertion order: past max entries, put evicts
// the oldest. A max of zero or less leaves it unbounded. It takes no
// lock; callers hold their own.
type fifo[K comparable, V any] struct {
	max   int
	m     map[K]V
	order []K // insertion order, oldest first
}

func newFIFO[K comparable, V any](max int) fifo[K, V] {
	return fifo[K, V]{max: max, m: make(map[K]V)}
}

func (f *fifo[K, V]) get(k K) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

func (f *fifo[K, V]) len() int { return len(f.m) }

// put inserts or replaces k's value; a replaced key keeps its place in
// the eviction order.
func (f *fifo[K, V]) put(k K, v V) {
	if _, ok := f.m[k]; !ok {
		f.order = append(f.order, k)
	}
	f.m[k] = v
	for f.max > 0 && len(f.m) > f.max {
		delete(f.m, f.order[0])
		f.order = f.order[1:]
	}
}

// remove deletes k, reporting whether it was present.
func (f *fifo[K, V]) remove(k K) bool {
	if _, ok := f.m[k]; !ok {
		return false
	}
	delete(f.m, k)
	i := slices.Index(f.order, k)
	f.order = slices.Delete(f.order, i, i+1)
	return true
}

// readEntry reads the disk entry at path and decodes it. A read failure,
// real or injected (faultinject.DiskRead), is a plain miss: the store is
// a cache, never a source of truth. A file that reads but fails to decode
// or to pass valid is corrupt: it is renamed aside with a .corrupt suffix
// and counted in quarantined, so a damaged entry is read (and fails)
// exactly once and is kept for post-mortems. corrupt is the caller's
// failpoint for garbling the bytes read. n is the entry's size in bytes.
func readEntry[T any](path string, corrupt *faultinject.Point, valid func(*T) bool, quarantined *atomic.Uint64) (ent T, n int, ok bool) {
	if faultinject.DiskRead.Fire() {
		return ent, 0, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return ent, 0, false
	}
	corrupt.CorruptBytes(data)
	if err := json.Unmarshal(data, &ent); err != nil || !valid(&ent) {
		if os.Rename(path, path+".corrupt") == nil {
			quarantined.Add(1)
		}
		var zero T
		return zero, 0, false
	}
	return ent, len(data), true
}

// publish writes data to path through a temporary file in the same
// directory and a rename, creating the directory if needed, so a reader
// sees either the old file or the whole new one. durable adds the fsyncs
// a crash-safe file needs: the file's before the rename and the
// directory's after it. The caches do without them, since a lost or torn
// cache entry is only a miss.
func publish(path string, data []byte, durable bool) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && durable {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if durable {
		if d, err := os.Open(dir); err == nil {
			d.Sync() //nolint:errcheck // best-effort metadata flush
			d.Close()
		}
	}
	return nil
}
