package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"malec/internal/config"
)

// Key canonically identifies one simulation point. Two runs with equal keys
// are guaranteed to produce identical Results (the simulator is
// deterministic in its inputs), which is what makes results content
// addressable: the cache, the singleflight table and the disk store all
// index by Key.
type Key struct {
	// ConfigDigest is a hex digest of the full configuration struct, so
	// two presets that happen to share a Name but differ in any parameter
	// never collide.
	ConfigDigest string `json:"configDigest"`
	Benchmark    string `json:"benchmark"`
	Instructions int    `json:"instructions"`
	Seed         uint64 `json:"seed"`
}

// KeyFor derives the canonical Key of a simulation point.
func KeyFor(cfg config.Config, benchmark string, instructions int, seed uint64) Key {
	return Key{
		ConfigDigest: ConfigDigest(cfg),
		Benchmark:    benchmark,
		Instructions: instructions,
		Seed:         seed,
	}
}

// ConfigDigest returns the content digest of a configuration as 16 hex
// characters: the memory-side half (MemSideDigest) followed by a digest of
// the complete configuration. Every field of config.Config is exported, so
// the JSON encoding covers the complete machine description in fixed
// struct order.
//
// The split layout makes the memory-side identity visible in the key: two
// configurations that differ only core-side (widths, latencies, buffer
// depths, sampling schedule) share their first 8 characters, and with
// them a memory side of a campaign's sampled pass (cpu.RunPassContext
// splits a trace unit's configurations by config.MemSide, which
// MemSideDigest hashes).
//
// Digests are memoized by configuration value (digests), so a request for
// a configuration already seen encodes and hashes nothing.
func ConfigDigest(cfg config.Config) string {
	k := digestKeyOf(cfg)
	digests.mu.Lock()
	d, ok := digests.m[k]
	digests.mu.Unlock()
	if ok {
		return d
	}
	d = configDigest(cfg)
	digests.mu.Lock()
	if len(digests.m) >= digestMemoSize {
		clear(digests.m)
	}
	digests.m[k] = d
	digests.mu.Unlock()
	return d
}

// digestMemoSize bounds the digest memo. The presets fit many times over;
// /v1/run accepts any valid sampling schedule, so the set of distinct
// configurations is unbounded and the memo is emptied when full.
const digestMemoSize = 256

// digests memoizes ConfigDigest. A mutex and a plain map, not a sync.Map,
// whose Load would box the struct key and allocate on every call.
var digests = struct {
	mu sync.Mutex
	m  map[digestKey]string
}{m: make(map[digestKey]string)}

// digestKey is a configuration as a comparable value. The Sampling pointer
// is replaced by the schedule it points to, so a caller that mutates a
// reused Sampling never reads a stale digest. WTPoolFraction is held as
// its bits: map equality treats -0.0 and +0.0 as equal, but encoding/json
// writes them differently, so they have different digests.
type digestKey struct {
	cfg      config.Config // Sampling nil, WTPoolFraction zero
	sampled  bool
	sampling config.Sampling
	poolBits uint64
}

func digestKeyOf(cfg config.Config) digestKey {
	k := digestKey{poolBits: math.Float64bits(cfg.WTPoolFraction)}
	if cfg.Sampling != nil {
		k.sampled, k.sampling = true, *cfg.Sampling
	}
	cfg.Sampling, cfg.WTPoolFraction = nil, 0
	k.cfg = cfg
	return k
}

// configDigest computes ConfigDigest without the memo.
func configDigest(cfg config.Config) string {
	enc, err := json.Marshal(cfg)
	if err != nil {
		// config.Config contains only plain scalar fields; Marshal
		// cannot fail on it.
		panic("engine: config not serializable: " + err.Error())
	}
	// Hash the encoding with retiredFields spliced back in before
	// "Bypass": (a quote inside a string value is escaped, so the match
	// is always the field name).
	i := bytes.Index(enc, bypassField)
	h := sha256.New()
	h.Write(enc[:i])
	h.Write(retiredFields)
	h.Write(enc[i:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return MemSideDigest(cfg) + hex.EncodeToString(sum[:4])
}

var (
	bypassField = []byte(`"Bypass":`)
	// retiredFields is the encoding of three host-simulator toggles that
	// config.Config carried between MSHRs and Bypass. Every digest hashed
	// them as false, so hashing these bytes in their old place keeps every
	// engine key, stored result and campaign journal valid.
	retiredFields = []byte(`"DisableCycleSkip":false,"DisableWakeup":false,"DisableMemIndex":false,`)
)

// MemSideDigest returns the 8-hex-character digest of a configuration's
// memory-side identity (config.MemSide): configurations that differ only
// core-side share it, and a sampled pass warms each once.
func MemSideDigest(cfg config.Config) string {
	enc, err := json.Marshal(cfg.MemSide())
	if err != nil {
		panic("engine: mem-side identity not serializable: " + err.Error())
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:4])
}

// String renders the key in digest:benchmark:instructions:seed form.
func (k Key) String() string {
	return fmt.Sprintf("%s:%s:%d:%d", k.ConfigDigest, k.Benchmark, k.Instructions, k.Seed)
}

// shard returns the disk-store shard directory for the key, the first two
// digest characters, spreading entries over up to 256 directories.
func (k Key) shard() string {
	if len(k.ConfigDigest) < 2 {
		return "00"
	}
	return k.ConfigDigest[:2]
}

// filename returns the disk-store file name for the key.
func (k Key) filename() string {
	return fmt.Sprintf("%s_%s_%d_%d.json", k.ConfigDigest, k.Benchmark, k.Instructions, k.Seed)
}
