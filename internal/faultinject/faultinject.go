// Package faultinject provides process-wide failpoints for chaos testing:
// named probability gates, armed from the environment, that production code
// consults at its failure-prone seams (disk reads and writes, checkpoint
// decoding, simulation execution). Disarmed points cost one atomic load, so
// the hooks stay compiled into release binaries and a chaos run is just a
// matter of exporting MALEC_FAULT_* before starting the daemon.
//
// Each point is armed with a firing probability:
//
//	MALEC_FAULT_DISK_READ=0.3    30% of result/checkpoint disk reads fail
//	MALEC_FAULT_DISK_WRITE=1     every disk persist is dropped
//	MALEC_FAULT_DISK_CORRUPT=0.5 50% of disk-store reads return garbled bytes
//	MALEC_FAULT_CKPT_CORRUPT=1   every checkpoint read returns garbled bytes
//	MALEC_FAULT_SIM_PANIC=0.05   5% of simulations panic in the worker
//	MALEC_FAULT_SIM_LATENCY=0.2  20% of simulations sleep an injected delay
//	MALEC_FAULT_SIM_LATENCY_MS=50  the injected delay (default 25ms)
//	MALEC_FAULT_JOURNAL_WRITE=0.1  10% of campaign-journal appends are dropped
//	MALEC_FAULT_JOURNAL_TORN=0.1   10% of campaign-journal appends are torn mid-line
//
// Decisions are drawn from a per-point deterministic counter-mode generator,
// so a fault schedule replays identically run to run; tests arm points
// programmatically with Arm/Disarm instead of the environment.
package faultinject

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// Point is one failpoint: a named probability gate consulted by production
// code via Fire. The zero probability (disarmed) fast path is a single
// atomic load.
type Point struct {
	name string // short name, for Active listings
	env  string // environment variable that arms the point
	// probBits holds math.Float64bits of the firing probability; zero
	// means disarmed.
	probBits atomic.Uint64
	// draws counts Fire calls while armed; each draw indexes the
	// deterministic generator, so the fault schedule is reproducible.
	draws atomic.Uint64
	// fires counts decisions that came up true (observability + tests).
	fires atomic.Uint64
}

// The process-wide failpoints. Production code references these directly;
// they are disarmed unless the corresponding environment variable (or a
// test's Arm call) sets a probability.
var (
	// DiskRead fails a result/checkpoint disk-store read (read error →
	// treated as a cache miss).
	DiskRead = newPoint("disk_read", "MALEC_FAULT_DISK_READ")
	// DiskWrite drops a result/checkpoint disk-store write (persistence
	// is best-effort; the entry is simply not stored).
	DiskWrite = newPoint("disk_write", "MALEC_FAULT_DISK_WRITE")
	// DiskCorrupt garbles the bytes of a successful result disk read,
	// exercising the corruption-quarantine path.
	DiskCorrupt = newPoint("disk_corrupt", "MALEC_FAULT_DISK_CORRUPT")
	// CkptCorrupt garbles the bytes of a successful checkpoint disk read.
	CkptCorrupt = newPoint("ckpt_corrupt", "MALEC_FAULT_CKPT_CORRUPT")
	// SimPanic panics inside an engine worker before the simulation runs,
	// exercising the panic-containment and key-quarantine path.
	SimPanic = newPoint("sim_panic", "MALEC_FAULT_SIM_PANIC")
	// SimLatency sleeps Latency() inside an engine worker before the
	// simulation runs, exercising deadlines and queue backpressure.
	SimLatency = newPoint("sim_latency", "MALEC_FAULT_SIM_LATENCY")
	// JournalWrite drops a campaign-journal append entirely (the point is
	// re-admitted from the result store after a restart).
	JournalWrite = newPoint("journal_write", "MALEC_FAULT_JOURNAL_WRITE")
	// JournalTorn truncates a campaign-journal append mid-line, simulating
	// a crash between write and fsync; replay truncates the torn tail.
	JournalTorn = newPoint("journal_torn", "MALEC_FAULT_JOURNAL_TORN")
)

// points lists every registered failpoint, for Active and Reload.
var points = []*Point{DiskRead, DiskWrite, DiskCorrupt, CkptCorrupt, SimPanic, SimLatency, JournalWrite, JournalTorn}

// latencyMs holds the injected delay in milliseconds (SimLatency point).
var latencyMs atomic.Int64

// defaultLatency applies when MALEC_FAULT_SIM_LATENCY is armed but
// MALEC_FAULT_SIM_LATENCY_MS is unset.
const defaultLatency = 25 * time.Millisecond

func newPoint(name, env string) *Point {
	p := &Point{name: name, env: env}
	p.loadEnv()
	return p
}

// loadEnv arms the point from its environment variable; absent or
// unparsable values disarm it.
func (p *Point) loadEnv() {
	v := os.Getenv(p.env)
	if v == "" {
		p.probBits.Store(0)
		return
	}
	prob, err := strconv.ParseFloat(v, 64)
	if err != nil || prob <= 0 || math.IsNaN(prob) {
		p.probBits.Store(0)
		return
	}
	if prob > 1 {
		prob = 1
	}
	p.probBits.Store(math.Float64bits(prob))
}

// Reload re-reads every point's environment variable (tests that t.Setenv
// after package init) and the injected-latency setting.
func Reload() {
	for _, p := range points {
		p.loadEnv()
	}
	latencyMs.Store(0)
	if v := os.Getenv("MALEC_FAULT_SIM_LATENCY_MS"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			latencyMs.Store(ms)
		}
	}
}

func init() { Reload() }

// Arm sets the firing probability programmatically (tests, chaos
// harnesses). Probabilities are clamped to [0, 1]; zero disarms.
func (p *Point) Arm(prob float64) {
	if prob <= 0 || math.IsNaN(prob) {
		p.probBits.Store(0)
		return
	}
	if prob > 1 {
		prob = 1
	}
	p.probBits.Store(math.Float64bits(prob))
}

// Disarm turns the point off.
func (p *Point) Disarm() { p.probBits.Store(0) }

// Enabled reports whether the point is armed at all.
func (p *Point) Enabled() bool { return p.probBits.Load() != 0 }

// Fires returns how many Fire calls decided true.
func (p *Point) Fires() uint64 { return p.fires.Load() }

// Fire draws one decision: true with the armed probability, always false
// when disarmed. Decisions come from a counter-mode splitmix64 stream, so
// a given arm probability yields the same schedule every run.
func (p *Point) Fire() bool {
	bits := p.probBits.Load()
	if bits == 0 {
		return false
	}
	prob := math.Float64frombits(bits)
	n := p.draws.Add(1)
	if u01(splitmix64(n)) >= prob {
		return false
	}
	p.fires.Add(1)
	return true
}

// CorruptBytes garbles data in place when the point fires, returning
// whether it did. The garbling flips bytes at a stride, which reliably
// breaks JSON framing without changing the length — exactly the shape of
// a torn or bit-rotted store entry.
func (p *Point) CorruptBytes(data []byte) bool {
	if len(data) == 0 || !p.Fire() {
		return false
	}
	for i := 0; i < len(data); i += 7 {
		data[i] ^= 0xA5
	}
	return true
}

// Latency returns the injected delay for the SimLatency point.
func Latency() time.Duration {
	if ms := latencyMs.Load(); ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return defaultLatency
}

// Active describes the armed points (startup logging), e.g.
// ["sim_panic=0.05", "disk_read=0.30"]. Empty when nothing is armed.
func Active() []string {
	var out []string
	for _, p := range points {
		if bits := p.probBits.Load(); bits != 0 {
			out = append(out, fmt.Sprintf("%s=%.2g", p.name, math.Float64frombits(bits)))
		}
	}
	return out
}

// splitmix64 is the SplitMix64 mixing function: a bijective scramble of
// the draw counter, giving an i.i.d.-looking deterministic stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps a uint64 to [0, 1) with 53-bit resolution.
func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }
