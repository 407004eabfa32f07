// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in a fresh process, checks the
// program's outputs, and prints, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload fig4-exact --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it instead runs the workload's layer probes and reports the
// per-layer metrics, a per-layer self-time table and its own tracing
// overhead. See README.md for the workloads and the design rules.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s: the first set-up repetition is timed from
// here, so process start-up is part of it.
var processStart = time.Now()

// buildDir holds everything the benchmark leaves behind: the binary, the Go
// caches, per-run scratch directories and span files.
const buildDir = ".bench_build"

// setupReps is how many times each workload sets itself up; setup_s is the
// median, and the last repetition's state is the one measured.
const setupReps = 3

// warmSeed is the held-out workload seed of every warm-up pass. No timed
// input uses it.
const warmSeed = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's arguments and accumulates its report.
type run struct {
	workload string
	seed     uint64
	seconds  int

	ctx  context.Context
	work string // scratch directory, removed at exit
	rep  report
	errs []string
	tr   *tracer
}

func (r *run) metric(name, unit string, v float64) {
	r.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a wrong output; the run then reports correct=false and
// exits non-zero.
func (r *run) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// info prints one informational line; the result line stays last.
func info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// workloads maps each workload name to its end-to-end and traced runs.
var workloads = map[string]struct {
	e2e, traced func(*run) error
}{
	"fig4-exact":    {fig4Exact.e2e, fig4Exact.traced},
	"sweep-sampled": {sweepSampled.e2e, sweepSampled.traced},
	"serve-hit":     {serveE2E, serveTraced},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		r     run
		trace int
		regen string
	)
	flag.StringVar(&r.workload, "workload", "", "workload to run: fig4-exact, sweep-sampled or serve-hit")
	flag.Uint64Var(&r.seed, "seed", 1, "workload seed: selects the inputs")
	flag.IntVar(&r.seconds, "seconds", 10, "nominal measured seconds; scales the fixed amount of work")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer probes instead of the end-to-end measurement")
	flag.StringVar(&regen, "regen", "", "regenerate the stored reference values into this file and exit")
	flag.Parse()
	r.ctx = context.Background()
	r.rep = report{Metrics: map[string]metric{}}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "work-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	r.work = work

	if regen != "" {
		if err := regenerate(&r, regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: regen:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[r.workload]
	if !ok || r.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fig4-exact|sweep-sampled|serve-hit, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	info("host %s", fingerprint())
	info("workload %s seed %d seconds %d trace %d", r.workload, r.seed, r.seconds, trace)
	fn := w.e2e
	if trace == 1 {
		r.tr = newTracer()
		fn = w.traced
	}
	if err := fn(&r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.tr != nil {
		if path, err := r.tr.write(r.workload, r.seed); err != nil {
			r.fail("writing spans: %v", err)
		} else {
			info("spans written to %s", path)
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if r.rep.Failed == 0 && len(r.errs) > 0 {
		r.rep.Failed = 1
	}
	r.rep.Correct = len(r.errs) == 0
	line, err := json.Marshal(r.rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.rep.Correct {
		return 1
	}
	return 0
}

// fingerprint describes the host and the code measured.
func fingerprint() string {
	fp := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(fp)
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured code: the git commit when the checkout is a
// repository, otherwise a digest of the Go sources and module files under
// the working directory (a benchmark checkout is not a repository).
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best-effort digest
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\n") //nolint:errcheck // hash writes cannot fail
		io.Copy(h, f)             //nolint:errcheck // best-effort digest
		f.Close()
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSS reports peak_rss_mb, the process's resident-set high-water mark
// (VmHWM).
func (r *run) peakRSS() error {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			r.metric("peak_rss_mb", "MB", kb/1024)
			return nil
		}
	}
	return fmt.Errorf("no VmHWM in /proc/self/status")
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setup runs one set-up function setupReps times and reports setup_s as the
// median; the first repetition is timed from process start.
func (r *run) setup(fn func() error) error {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	info("setup_s repetitions %v", times)
	r.metric("setup_s", "s", median(times))
	return nil
}

// scratch returns a fresh directory under the run's scratch directory.
func (r *run) scratch(prefix string) (string, error) {
	return os.MkdirTemp(r.work, prefix+"-*")
}
