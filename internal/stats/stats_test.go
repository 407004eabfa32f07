package stats

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"malec/internal/mem"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc(CtrL1Fills)
	c.Add(CtrL1Fills, 4)
	c.Inc(CtrTLBWalks)
	if c.Get(CtrL1Fills) != 5 || c.Get(CtrTLBWalks) != 1 || c.Get(CtrSBForwards) != 0 {
		t.Fatalf("counter values wrong: fills=%d walks=%d", c.Get(CtrL1Fills), c.Get(CtrTLBWalks))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "l1.fills" || names[1] != "tlb.walks" {
		t.Fatalf("Names() = %v", names)
	}
	other := NewCounters()
	other.Add(CtrL1Fills, 10)
	other.AddName("custom.counter", 2)
	c.Merge(other)
	if c.Get(CtrL1Fills) != 15 || c.GetName("custom.counter") != 2 {
		t.Fatal("merge failed")
	}
	if !strings.Contains(c.String(), "l1.fills") {
		t.Fatal("String() missing counter")
	}
}

func TestCountersNameAPI(t *testing.T) {
	c := NewCounters()
	// Canonical names route to the dense slot.
	c.IncName("l1.fills")
	c.AddName("l1.fills", 2)
	if c.Get(CtrL1Fills) != 3 || c.GetName("l1.fills") != 3 {
		t.Fatalf("name-keyed access out of sync: id=%d name=%d",
			c.Get(CtrL1Fills), c.GetName("l1.fills"))
	}
	// Non-canonical names land in the overflow map.
	c.IncName("weird.counter")
	if c.GetName("weird.counter") != 1 {
		t.Fatal("overflow counter lost")
	}
	if id, ok := CounterByName("l1.fills"); !ok || id != CtrL1Fills {
		t.Fatalf("CounterByName = %v, %v", id, ok)
	}
	if _, ok := CounterByName("weird.counter"); ok {
		t.Fatal("CounterByName accepted a non-canonical name")
	}
	if CtrL1Fills.Name() != "l1.fills" {
		t.Fatalf("Name() = %q", CtrL1Fills.Name())
	}
	if got := len(CounterNames()); got != int(NumCounters) {
		t.Fatalf("CounterNames() has %d entries, want %d", got, NumCounters)
	}
}

// TestCountersZeroValue is the regression test for the nil-map panic: the
// zero value (and a set decoded from JSON null) must be fully usable.
func TestCountersZeroValue(t *testing.T) {
	var c Counters
	c.Inc(CtrL1Fills)
	c.Add(CtrTLBWalks, 3)
	c.IncName("extra.one")
	c.Merge(NewCounters())
	c.Merge(nil)
	if c.Get(CtrL1Fills) != 1 || c.Get(CtrTLBWalks) != 3 || c.GetName("extra.one") != 1 {
		t.Fatal("zero-value counters lost updates")
	}

	var null Counters
	if err := json.Unmarshal([]byte("null"), &null); err != nil {
		t.Fatalf("unmarshal null: %v", err)
	}
	null.Inc(CtrSBForwards) // must not panic
	null.AddName("after.null", 2)
	if null.Get(CtrSBForwards) != 1 || null.GetName("after.null") != 2 {
		t.Fatal("counters decoded from null unusable")
	}
}

// TestCountersJSONStable pins the JSON encoding to the historical
// map-of-names form: touched counters only (even when zero), keys sorted.
func TestCountersJSONStable(t *testing.T) {
	c := NewCounters()
	c.Add(CtrMalecGroupLoads, 0) // touched at zero must still be emitted
	c.Inc(CtrL1Fills)
	c.AddName("zz.custom", 7)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"l1.fills":1,"malec.group_loads":0,"zz.custom":7}`
	if string(data) != want {
		t.Fatalf("MarshalJSON = %s, want %s", data, want)
	}

	var back Counters
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	round, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(round) != want {
		t.Fatalf("round-trip = %s, want %s", round, want)
	}
	if back.Get(CtrL1Fills) != 1 || back.GetName("zz.custom") != 7 {
		t.Fatal("round-trip lost values")
	}

	empty := NewCounters()
	data, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Fatalf("empty MarshalJSON = %s, want {}", data)
	}
}

// asMap materializes the touched counters as a name->value map: the
// representation whose encoding/json bytes MarshalJSON must reproduce.
func (c *Counters) asMap() map[string]uint64 {
	m := make(map[string]uint64, int(NumCounters)+len(c.extra))
	for id := Counter(0); id < NumCounters; id++ {
		if c.touched[id] {
			m[counterNames[id]] = c.v[id]
		}
	}
	for k, v := range c.extra {
		m[k] = v
	}
	return m
}

// TestCountersMarshalMatchesMap checks MarshalJSON byte for byte against
// encoding/json over the equivalent map, on random counter sets whose
// overflow names need escaping (HTML characters, quotes, control bytes,
// non-ASCII, invalid UTF-8, U+2028) and interleave with the canonical
// names in sort order.
func TestCountersMarshalMatchesMap(t *testing.T) {
	overflow := []string{
		"", "a", "ib.<stalls>", "issue.loads&stores", `l1."quoted"`,
		"l1.fills\x00", "l1.fills\\", "l1.fills0", "malec.\u00e9t\u00e9",
		"sim.\u2028sep", "tlb.\ttab\n", "zz>", "\xff.invalid", "\U0001f600.emoji",
		"L1.upper", "sb.forwards ", "mb.\x7f",
	}
	rng := rand.New(rand.NewPCG(14, 1))
	for trial := 0; trial < 500; trial++ {
		c := NewCounters()
		for id := Counter(0); id < NumCounters; id++ {
			if rng.IntN(3) == 0 {
				c.Add(id, rng.Uint64()>>rng.UintN(64))
			}
		}
		for _, name := range overflow {
			if rng.IntN(4) == 0 {
				c.AddName(name, rng.Uint64()>>rng.UintN(64))
			}
		}
		want, err := json.Marshal(c.asMap())
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("trial %d: MarshalJSON =\n%s\nwant\n%s", trial, got, want)
		}
		if err := json.Unmarshal(got, new(Counters)); err != nil {
			t.Fatalf("trial %d: output does not decode: %v", trial, err)
		}
	}
}

// TestCountersMarshalAllocs pins MarshalJSON of a canonical counter set to
// the single allocation of its output buffer.
func TestCountersMarshalAllocs(t *testing.T) {
	c := NewCounters()
	for id := Counter(0); id < NumCounters; id++ {
		c.Add(id, math.MaxUint64-uint64(id))
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.MarshalJSON(); err != nil {
			panic(err)
		}
	}); n > 1 {
		t.Fatalf("MarshalJSON allocates %.1f/op, want <= 1", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for _, x := range []int{1, 1, 2, 3, 4, 5, 8, 9, 100} {
		h.Observe(x)
	}
	buckets := h.Buckets()
	want := []uint64{2, 1, 2, 2, 2} // 1s, 2, {3,4}, {5,8}, overflow
	for i := range want {
		if buckets[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, buckets[i], want[i], buckets)
		}
	}
	if h.Total() != 9 {
		t.Fatalf("Total = %d", h.Total())
	}
	if got := h.Fraction(0); math.Abs(got-2.0/9) > 1e-12 {
		t.Fatalf("Fraction(0) = %v", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	NewHistogram(2, 1)
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %v", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(2,2,2) = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v", got)
	}
	// Non-positive entries ignored.
	if got := GeoMean([]float64{-1, 0, 8, 2}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean with junk = %v", got)
	}
}

func TestPageLocalityPerfectRun(t *testing.T) {
	pl := NewPageLocality(Fig1Gaps)
	// 100 loads to the same page: one long run.
	for i := 0; i < 100; i++ {
		pl.ObserveLoad(mem.MakeAddr(1, uint32(i*8)))
	}
	pl.Flush()
	if got := pl.FollowedSamePage(); got != 1.0 {
		t.Fatalf("FollowedSamePage = %v, want 1", got)
	}
	h := pl.Hist(0)
	if h.Buckets()[4] != 1 { // one run of length >8
		t.Fatalf("expected single >8 run, got %v", h.Buckets())
	}
	if got := pl.GroupedFraction(0); got != 1.0 {
		t.Fatalf("GroupedFraction = %v, want 1", got)
	}
}

func TestPageLocalityAlternating(t *testing.T) {
	pl := NewPageLocality(Fig1Gaps)
	// Strictly alternating pages: zero direct same-page locality, but
	// tolerating 1 gap recovers all of it.
	for i := 0; i < 200; i++ {
		pl.ObserveLoad(mem.MakeAddr(mem.PageID(i%2), uint32(i*4)%4096))
	}
	pl.Flush()
	if got := pl.FollowedSamePage(); got != 0 {
		t.Fatalf("FollowedSamePage = %v, want 0", got)
	}
	// Gap tolerance 0: all runs length 1.
	if got := pl.GroupedFraction(0); got != 0 {
		t.Fatalf("GroupedFraction(gap0) = %v, want 0", got)
	}
	// Gap tolerance 1: both pages form two long runs.
	if got := pl.GroupedFraction(1); got < 0.95 {
		t.Fatalf("GroupedFraction(gap1) = %v, want ~1", got)
	}
}

func TestPageLocalitySameLine(t *testing.T) {
	pl := NewPageLocality([]int{0})
	a := mem.MakeAddr(3, 256)
	pl.ObserveLoad(a)
	pl.ObserveLoad(a + 8) // same line
	pl.ObserveLoad(a + 8 + mem.LineSize)
	pl.Flush()
	if got := pl.FollowedSameLine(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FollowedSameLine = %v, want 0.5", got)
	}
}

func TestPageLocalityGapClosesRuns(t *testing.T) {
	pl := NewPageLocality([]int{0, 8})
	// Page A x3, page B x1, page A x3: with gap 0 two runs of 3;
	// with gap 8 one run of 6 (B's access interleaved).
	seq := []mem.PageID{1, 1, 1, 2, 1, 1, 1}
	for i, p := range seq {
		pl.ObserveLoad(mem.MakeAddr(p, uint32(i*64)%4096))
	}
	pl.Flush()
	h0 := pl.Hist(0).Buckets()
	// runs with gap 0: [3 (A)], [1 (B)], [3 (A)] -> bucket "3-4" twice, "1" once
	if h0[0] != 1 || h0[2] != 2 {
		t.Fatalf("gap-0 buckets = %v", h0)
	}
	h8 := pl.Hist(1).Buckets()
	// with gap 8 the A-run never closes until flush: one run of 6 and B run of 1
	if h8[3] != 1 { // 5-8 bucket
		t.Fatalf("gap-8 buckets = %v", h8)
	}
}
