package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Counter is a typed identifier for one of the simulator's event counters.
// The hot simulation paths increment counters through these IDs — a single
// indexed add into a dense array — instead of hashing a string per event.
// Every ID has a canonical dotted name (see Name) used for JSON encoding,
// text rendering and the name-keyed compatibility API, so the external
// representation is unchanged from the map-of-names era.
type Counter uint8

// The counter IDs, grouped by subsystem. The canonical names they encode to
// are the exact strings the simulator has always emitted.
const (
	// Issue and input buffer.
	CtrIssueLoads Counter = iota
	CtrIssueStores
	CtrIBStalls
	CtrIBCarried

	// TLB hierarchy.
	CtrUTLBLookups
	CtrTLBLookups
	CtrTLBWalks

	// L1 data cache.
	CtrL1ReducedReads
	CtrL1ConventionalReads
	CtrL1LoadMisses
	CtrL1StoreMisses
	CtrL1Fills
	CtrL1BypassedFills
	CtrL1Writebacks
	CtrL1ReducedWrites
	CtrL1ConventionalWrites
	CtrL1MSHRStalls

	// Store/merge buffer.
	CtrSBForwards
	CtrMBForwards
	CtrMBMBEWrites

	// MALEC grouping and arbitration.
	CtrMalecGroups
	CtrMalecGroupLoads
	CtrMalecMergedLoads
	CtrMalecBankConflicts

	// Host-simulator telemetry: cycle-skipping fast-forward activity.
	// These describe the simulator, not the simulated machine, and are
	// reported through Result.Telemetry rather than the per-run event
	// counters (cycle skipping never changes simulated behaviour, so the
	// semantic Result stays byte-identical whether it is on or off).
	CtrSkippedCycles
	CtrSkipJumps

	// NumCounters is the number of defined counter IDs (array length for
	// dense per-counter storage).
	NumCounters
)

// counterNames maps IDs to canonical names. Entries must be unique and
// non-empty for every ID below NumCounters (checked by init).
var counterNames = [NumCounters]string{
	CtrIssueLoads:  "issue.loads",
	CtrIssueStores: "issue.stores",
	CtrIBStalls:    "ib.stalls",
	CtrIBCarried:   "ib.carried",

	CtrUTLBLookups: "tlb.utlb_lookups",
	CtrTLBLookups:  "tlb.tlb_lookups",
	CtrTLBWalks:    "tlb.walks",

	CtrL1ReducedReads:       "l1.reduced_reads",
	CtrL1ConventionalReads:  "l1.conventional_reads",
	CtrL1LoadMisses:         "l1.load_misses",
	CtrL1StoreMisses:        "l1.store_misses",
	CtrL1Fills:              "l1.fills",
	CtrL1BypassedFills:      "l1.bypassed_fills",
	CtrL1Writebacks:         "l1.writebacks",
	CtrL1ReducedWrites:      "l1.reduced_writes",
	CtrL1ConventionalWrites: "l1.conventional_writes",
	CtrL1MSHRStalls:         "l1.mshr_stalls",

	CtrSBForwards:  "sb.forwards",
	CtrMBForwards:  "mb.forwards",
	CtrMBMBEWrites: "mb.mbe_writes",

	CtrMalecGroups:        "malec.groups",
	CtrMalecGroupLoads:    "malec.group_loads",
	CtrMalecMergedLoads:   "malec.merged_loads",
	CtrMalecBankConflicts: "malec.bank_conflicts",

	CtrSkippedCycles: "sim.skipped_cycles",
	CtrSkipJumps:     "sim.skip_jumps",
}

// counterIDs is the inverse of counterNames, for the name-keyed API and
// JSON decoding.
var counterIDs = func() map[string]Counter {
	m := make(map[string]Counter, NumCounters)
	for id := Counter(0); id < NumCounters; id++ {
		name := counterNames[id]
		if name == "" {
			panic(fmt.Sprintf("stats: counter %d has no canonical name", id))
		}
		if _, dup := m[name]; dup {
			panic("stats: duplicate counter name " + name)
		}
		m[name] = id
	}
	return m
}()

// Name returns the counter's canonical dotted name.
func (c Counter) Name() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("stats.Counter(%d)", uint8(c))
}

// String implements fmt.Stringer.
func (c Counter) String() string { return c.Name() }

// CounterByName resolves a canonical name to its typed ID.
func CounterByName(name string) (Counter, bool) {
	id, ok := counterIDs[name]
	return id, ok
}

// CounterNames returns the canonical names of all defined counters in ID
// order.
func CounterNames() []string {
	out := make([]string, NumCounters)
	copy(out, counterNames[:])
	return out
}

// Counters is a set of monotonically increasing event counters. Counters
// identified by a typed ID live in a dense array (the simulator hot path);
// counters addressed by a non-canonical name (decoded from foreign JSON, or
// ad-hoc instrumentation) live in an overflow map.
//
// The zero value is ready to use. Distinguishing "touched" from "never
// touched" counters is preserved from the map era: only counters that were
// incremented (even by zero) appear in Names, String and the JSON encoding.
type Counters struct {
	v       [NumCounters]uint64
	touched [NumCounters]bool
	extra   map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{} }

// Inc increments counter id by one.
func (c *Counters) Inc(id Counter) {
	c.v[id]++
	c.touched[id] = true
}

// Add increments counter id by n.
func (c *Counters) Add(id Counter, n uint64) {
	c.v[id] += n
	c.touched[id] = true
}

// Get returns the value of counter id (zero if never touched).
func (c *Counters) Get(id Counter) uint64 { return c.v[id] }

// IncName increments the counter with the given name by one. Canonical
// names are routed to their dense slot; others to the overflow map.
func (c *Counters) IncName(name string) { c.AddName(name, 1) }

// AddName increments the counter with the given name by n.
func (c *Counters) AddName(name string, n uint64) {
	if id, ok := counterIDs[name]; ok {
		c.v[id] += n
		c.touched[id] = true
		return
	}
	if c.extra == nil {
		c.extra = make(map[string]uint64)
	}
	c.extra[name] += n
}

// GetName returns the value of the counter with the given name (zero if
// never touched).
func (c *Counters) GetName(name string) uint64 {
	if id, ok := counterIDs[name]; ok {
		return c.v[id]
	}
	return c.extra[name]
}

// Names returns the sorted names of all touched counters.
func (c *Counters) Names() []string {
	names := make([]string, 0, int(NumCounters)+len(c.extra))
	for id := Counter(0); id < NumCounters; id++ {
		if c.touched[id] {
			names = append(names, counterNames[id])
		}
	}
	for k := range c.extra {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Merge adds all touched counters from other into c. A nil other is a
// no-op.
func (c *Counters) Merge(other *Counters) {
	if other == nil {
		return
	}
	for id := Counter(0); id < NumCounters; id++ {
		if other.touched[id] {
			c.v[id] += other.v[id]
			c.touched[id] = true
		}
	}
	for k, v := range other.extra {
		if c.extra == nil {
			c.extra = make(map[string]uint64)
		}
		c.extra[k] += v
	}
}

// quotedNames holds each canonical name JSON-quoted, and sortedIDs lists
// the IDs in name order: together they let MarshalJSON write the canonical
// counters without sorting, reflection or a map.
var quotedNames, sortedIDs = func() ([NumCounters]string, [NumCounters]Counter) {
	var quoted [NumCounters]string
	var ids [NumCounters]Counter
	for id := Counter(0); id < NumCounters; id++ {
		enc, _ := json.Marshal(counterNames[id]) // a string always encodes
		quoted[id] = string(enc)
		ids[id] = id
	}
	sort.Slice(ids[:], func(i, j int) bool { return counterNames[ids[i]] < counterNames[ids[j]] })
	return quoted, ids
}()

// MarshalJSON encodes the touched counters as a plain name->value object.
// Keys are emitted in sorted order so identical counter sets serialize to
// identical bytes, which result caching and determinism tests rely on. The
// bytes are exactly those of encoding/json over a name->value map: the
// canonical names and the sorted overflow names are merged in byte order.
func (c *Counters) MarshalJSON() ([]byte, error) {
	extra := make([]string, 0, len(c.extra))
	for k := range c.extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	// 50 bytes covers the longest canonical member with a 20-digit value.
	buf := make([]byte, 1, 2+50*(int(NumCounters)+len(extra)))
	buf[0] = '{'
	i := 0
	for _, id := range sortedIDs {
		if !c.touched[id] {
			continue
		}
		for ; i < len(extra) && extra[i] < counterNames[id]; i++ {
			buf = appendExtra(buf, extra[i], c.extra[extra[i]])
		}
		buf = appendMember(buf, quotedNames[id], c.v[id])
	}
	for ; i < len(extra); i++ {
		buf = appendExtra(buf, extra[i], c.extra[extra[i]])
	}
	return append(buf, '}'), nil
}

// appendMember appends one quotedKey:value member to an object under
// construction (buf holds at least its opening brace).
func appendMember[K string | []byte](buf []byte, quotedKey K, v uint64) []byte {
	if len(buf) > 1 {
		buf = append(buf, ',')
	}
	buf = append(append(buf, quotedKey...), ':')
	return strconv.AppendUint(buf, v, 10)
}

// appendExtra appends an overflow counter. encoding/json quotes the name,
// so its escaping (HTML characters, invalid UTF-8, U+2028/U+2029) matches
// a map encoding exactly.
func appendExtra(buf []byte, name string, v uint64) []byte {
	key, _ := json.Marshal(name) // a string always encodes
	return appendMember(buf, key, v)
}

// UnmarshalJSON decodes a name->value object produced by MarshalJSON.
// Canonical names land in their dense slots; unknown names are kept in the
// overflow map so foreign counter sets round-trip. JSON null decodes to an
// empty, usable counter set.
func (c *Counters) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*c = Counters{}
	for k, v := range m {
		c.AddName(k, v)
	}
	return nil
}

// String renders the counters one per line, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for _, name := range c.Names() {
		fmt.Fprintf(&b, "%-40s %12d\n", name, c.GetName(name))
	}
	return b.String()
}
