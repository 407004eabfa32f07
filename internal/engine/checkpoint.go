package engine

// Warmed-checkpoint store: microarchitectural snapshots captured by the
// sampled simulator at measurement-window boundaries, content-addressed by
// (memory-side config digest, benchmark, seed, record index). Because the
// functional-warming trajectory depends only on the memory side of the
// configuration and the workload, every core-side variant maps to the
// same entries. Inside a campaign a memory-side group already shares its
// warm state: runJobs runs the group as one sampled pass, which saves each
// window's snapshot and restores none. The store serves what comes later:
// a single point (a /v1/run) for another core-side variant, or a later
// campaign, restores instead of warming.
//
// The store is two-level, like the result store and on the same keyed
// store (store.go): a bounded in-memory FIFO of live snapshots (so reuse
// works with no CacheDir configured, e.g. in tests and CI smokes), plus
// optional JSON persistence under the engine's cache directory.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"malec/internal/cpu"
	"malec/internal/faultinject"
)

// checkpointEntries bounds the in-memory checkpoint cache. A snapshot is
// about 100-150 KB of slabs: 80 KB of L2 tags and one-byte LRU ranks, 12
// KB of L1 lines and stamps, and 4 bytes per mapped page, so the bound
// holds a campaign's working set in under 20 MB.
const checkpointEntries = 128

// ckKey identifies one warmed snapshot.
type ckKey struct {
	MemDigest string `json:"memDigest"`
	Benchmark string `json:"benchmark"`
	Seed      uint64 `json:"seed"`
	Index     uint64 `json:"index"` // absolute trace-record index
}

func (k ckKey) filename() string {
	return fmt.Sprintf("%s_%s_%d_%d.json", k.MemDigest, k.Benchmark, k.Seed, k.Index)
}

// checkpointStore is the engine-level store; scoped views implementing
// cpu.Checkpoints are curried per simulation. Safe for concurrent use.
type checkpointStore struct {
	dir string // disk root ("" disables persistence)

	hits         atomic.Uint64
	misses       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	quarantined  *atomic.Uint64 // the engine's count of corrupt entries renamed aside

	mu  sync.Mutex
	mem fifo[ckKey, *cpu.Checkpoint]

	// encMu serializes disk saves over one encode buffer, which keeps its
	// capacity: a snapshot encodes to a few hundred KB, and a fresh
	// buffer per save would be that much garbage.
	encMu  sync.Mutex
	encBuf bytes.Buffer
	enc    *json.Encoder
}

func newCheckpointStore(dir string, quarantined *atomic.Uint64) *checkpointStore {
	s := &checkpointStore{
		dir:         dir,
		quarantined: quarantined,
		mem:         newFIFO[ckKey, *cpu.Checkpoint](checkpointEntries),
	}
	s.enc = json.NewEncoder(&s.encBuf)
	return s
}

// diskEntry mirrors the result store's versioned envelope so stale
// generations read as misses.
type ckDiskEntry struct {
	Version int             `json:"version"`
	Key     ckKey           `json:"key"`
	State   *cpu.Checkpoint `json:"state"`
}

func (s *checkpointStore) diskPath(key ckKey) string {
	shard := "00"
	if len(key.MemDigest) >= 2 {
		shard = key.MemDigest[:2]
	}
	return filepath.Join(s.dir, fmt.Sprintf("v%d", DiskFormatVersion), "ckpt", shard, key.filename())
}

// load fetches a snapshot, promoting disk entries into memory. The
// returned snapshot is shared and must not be mutated (cpu restores copy
// out of it).
func (s *checkpointStore) load(key ckKey) (*cpu.Checkpoint, bool) {
	s.mu.Lock()
	st, ok := s.mem.get(key)
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return st, true
	}
	if s.dir != "" {
		if st, ok := s.loadDisk(key); ok {
			s.mu.Lock()
			s.mem.put(key, st)
			s.mu.Unlock()
			s.hits.Add(1)
			return st, true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// loadDisk fetches a persisted snapshot. Read failures are plain misses;
// an entry that reads but fails to decode or validate is corrupt and is
// quarantined (see readEntry). A snapshot that decodes but whose
// instruction count, source position or generator index differs from its
// record index, or whose arrays do not fit the system's geometry (a
// damaged entry, or one written before the L2 snapshot held tags and
// ranks), is rejected by the sampled run itself, which re-warms and
// overwrites it: a damaged checkpoint degrades to re-warming, never to
// wrong state.
func (s *checkpointStore) loadDisk(key ckKey) (*cpu.Checkpoint, bool) {
	ent, n, ok := readEntry(s.diskPath(key), faultinject.CkptCorrupt, func(ent *ckDiskEntry) bool {
		return ent.Version == DiskFormatVersion && ent.Key == key && ent.State != nil && ent.State.Sys != nil
	}, s.quarantined)
	if !ok {
		return nil, false
	}
	s.bytesRead.Add(uint64(n))
	return ent.State, true
}

// save stores a snapshot in memory and, when configured, on disk.
func (s *checkpointStore) save(key ckKey, st *cpu.Checkpoint) {
	s.mu.Lock()
	s.mem.put(key, st)
	s.mu.Unlock()
	if s.dir == "" || faultinject.DiskWrite.Fire() {
		return
	}
	s.encMu.Lock()
	defer s.encMu.Unlock()
	s.encBuf.Reset()
	if err := s.enc.Encode(ckDiskEntry{Version: DiskFormatVersion, Key: key, State: st}); err != nil {
		return
	}
	// Encode ends the value with a newline, which json.Marshal does not.
	data := bytes.TrimSuffix(s.encBuf.Bytes(), []byte("\n"))
	if publish(s.diskPath(key), data, false) == nil {
		s.bytesWritten.Add(uint64(len(data)))
	}
}

// scoped returns the cpu.Checkpoints view for one simulation: the engine
// curries everything but the record index.
func (s *checkpointStore) scoped(memDigest, benchmark string, seed uint64) cpu.Checkpoints {
	return &scopedCheckpoints{store: s, memDigest: memDigest, benchmark: benchmark, seed: seed}
}

type scopedCheckpoints struct {
	store     *checkpointStore
	memDigest string
	benchmark string
	seed      uint64
}

func (c *scopedCheckpoints) key(n uint64) ckKey {
	return ckKey{MemDigest: c.memDigest, Benchmark: c.benchmark, Seed: c.seed, Index: n}
}

// Load implements cpu.Checkpoints.
func (c *scopedCheckpoints) Load(n uint64) (*cpu.Checkpoint, bool) {
	return c.store.load(c.key(n))
}

// Save implements cpu.Checkpoints.
func (c *scopedCheckpoints) Save(n uint64, st *cpu.Checkpoint) {
	c.store.save(c.key(n), st)
}
