// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the simulator's public entry points, checks the
// outputs, and prints either the end-to-end host metrics (untraced runs,
// --trace 0) or the per-layer metrics (a separate traced run, --trace 1).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload gemm-tasks --seed 1 --seconds 10 --trace 0
//
// README.md in this directory defines every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the recorded default workload seed; README.md also records
// the held-out seed.
const defaultSeed = 1

// maxProcs caps GOMAXPROCS so host figures compare across machines with
// more cores than the two the benchmark was defined on.
const maxProcs = 2

// minReps is the fewest timed calls a run makes, however long each takes.
const minReps = 3

// Set-up takes microseconds, so setup_s is the median of setupBatches
// batch means, each batch long enough (setupBatchTime) to swamp timer
// resolution and to include the collections its garbage causes.
const (
	setupBatches   = 21
	setupBatchTime = 10 * time.Millisecond
)

// A metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and the ones whose output was wrong.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(ok bool, what string) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", what)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed; every generated input derives from it")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	stateDir := flag.String("state-dir", "", "directory keeping each seed's virtual-output digest across runs of one build (empty: no cross-run check)")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace %d: want 0 or 1", *traced))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds %g: want > 0", *seconds))
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	budget := time.Duration(*seconds * float64(time.Second))

	var (
		t   tally
		m   map[string]metric
		dg  string
		err error
	)
	if *traced == 1 {
		m, dg, err = measureLayers(w, *seed, budget, &t)
	} else {
		m, dg, err = measureHost(w, *seed, budget, &t)
	}
	if err != nil {
		fail(err)
	}
	if *stateDir != "" {
		ok, err := checkStoredDigest(*stateDir, w.name, *seed, dg)
		if err != nil {
			fail(err)
		}
		t.add(ok, "virtual-output digest differs from an earlier run of this seed")
	}
	fmt.Printf("workload %s seed %d digest %s\n", w.name, *seed, dg)
	printMetrics(m)
	line, err := json.Marshal(report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// measureHost produces the end-to-end metrics: it checks the outputs, then
// repeats set-up plus the timed call until the budget is spent (at least
// minReps times), with no tracing, metrics registry or profiler attached.
// Every repetition starts from a fresh topology, so modelled caches start
// empty each time, as they do for a user.
func measureHost(w *bench, seed int64, budget time.Duration, t *tally) (map[string]metric, string, error) {
	w.check(seed, t)
	runtime.GC()
	setup, err := setupSeconds(w, seed)
	if err != nil {
		return nil, "", err
	}
	deadline := time.Now().Add(budget)
	var walls, allocs []float64
	var ref string
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		s, err := timedRun(w, seed, nil)
		if err != nil {
			return nil, "", err
		}
		out := s.trial.finish(false)
		walls = append(walls, s.wall.Seconds())
		allocs = append(allocs, float64(s.alloc)/(1<<20))
		ref = sameDigest(t, ref, out.digest, "untraced repeat")
		t.attempted += out.ops.attempted
		t.failed += out.ops.failed
	}
	fmt.Printf("untraced: %d timed calls\n", len(walls))
	return map[string]metric{
		"setup_s":     {setup, "s"},
		"wall_s":      {median(walls), "s"},
		"alloc_mb":    {median(allocs), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}, ref, nil
}

// setupSeconds returns the median time of one set-up, timed alone.
func setupSeconds(w *bench, seed int64) (float64, error) {
	batch := func(n int) (time.Duration, error) {
		runtime.GC()
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := w.setup(seed, false); err != nil {
				return 0, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
		}
		return time.Since(start), nil
	}
	n := 1
	for {
		d, err := batch(n)
		if err != nil {
			return 0, err
		}
		if d >= setupBatchTime {
			break
		}
		n *= 2
	}
	var means []float64
	for i := 0; i < setupBatches; i++ {
		d, err := batch(n)
		if err != nil {
			return 0, err
		}
		means = append(means, d.Seconds()/float64(n))
	}
	return median(means), nil
}

// sample is one timed repetition.
type sample struct {
	wall  time.Duration
	alloc uint64 // bytes allocated by the timed call
	trial *trial
}

// timedRun sets up one fresh instance and times its call into the
// workload's entry point, under the CPU profiler when prof is non-nil. A
// collection first makes every repetition start from the same heap state.
func timedRun(w *bench, seed int64, prof *profileShares) (*sample, error) {
	runtime.GC()
	tr, err := w.setup(seed, prof != nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	s := &sample{trial: tr}
	call := func() error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := tr.call()
		s.wall = time.Since(start)
		runtime.ReadMemStats(&after)
		s.alloc = after.TotalAlloc - before.TotalAlloc
		return err
	}
	if prof != nil {
		err = profile(prof, call)
	} else {
		err = call()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return s, nil
}

// sameDigest counts one digest comparison against the reference (the first
// digest seen) and returns the reference.
func sameDigest(t *tally, ref, got, what string) string {
	if ref == "" {
		return got
	}
	t.add(got == ref, what+": virtual-output digest changed")
	return ref
}

// measureLayers produces the per-layer metrics. It times untraced calls for
// a third of the budget, then repeats traced calls (trace recorder, metrics
// registry and CPU profiler on) for the rest. The virtual-output digest must
// be identical in both, or tracing perturbed the schedule. Only the calls
// themselves are profiled, not set-up or the analysis of their output.
func measureLayers(w *bench, seed int64, budget time.Duration, t *tally) (map[string]metric, string, error) {
	w.check(seed, t)
	start := time.Now()
	var plain, traced []float64
	var ref string
	var refused int64
	for rep := 0; rep < 1 || time.Since(start) < budget/3; rep++ {
		s, err := timedRun(w, seed, nil)
		if err != nil {
			return nil, "", err
		}
		out := s.trial.finish(false)
		plain = append(plain, s.wall.Seconds())
		ref = sameDigest(t, ref, out.digest, "untraced repeat")
		t.attempted += out.ops.attempted
		t.failed += out.ops.failed
		refused += out.refused
	}
	var layers map[string]float64
	var prof profileShares
	for rep := 0; rep < 1 || time.Since(start) < budget; rep++ {
		s, err := timedRun(w, seed, &prof)
		if err != nil {
			return nil, "", err
		}
		out := s.trial.finish(layers == nil)
		traced = append(traced, s.wall.Seconds())
		ref = sameDigest(t, ref, out.digest, "traced run")
		if layers == nil {
			layers = out.metrics
		}
	}
	if err := w.extras(seed, layers); err != nil {
		return nil, "", fmt.Errorf("%s: %w", w.name, err)
	}
	prof.into(layers)
	layers["trace.overhead_frac"] = median(traced)/median(plain) - 1
	layers["error_frac"] = float64(t.failed+refused) / float64(t.attempted)
	fmt.Printf("traced: %d untraced and %d traced calls, %d profile samples\n",
		len(plain), len(traced), prof.total)

	m := map[string]metric{}
	for _, spec := range perLayer {
		v, ok := layers[spec.name]
		if !ok {
			return nil, "", fmt.Errorf("%s: per-layer metric %s not produced", w.name, spec.name)
		}
		m[spec.name] = metric{v, spec.unit}
	}
	return m, ref, nil
}

// checkStoredDigest compares a seed's digest with the one an earlier run of
// the same build stored, storing it if none exists. The build is identified
// by the executable's hash, so a rebuilt program starts afresh.
func checkStoredDigest(dir, workload string, seed int64, digest string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return false, err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return false, err
	}
	build := hex.EncodeToString(h.Sum(nil))[:16]
	path := filepath.Join(dir, "digests", build, fmt.Sprintf("%s-%d", workload, seed))
	old, err := os.ReadFile(path)
	if err == nil {
		return string(old) == digest, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, err
	}
	return true, os.WriteFile(path, []byte(digest), 0o644)
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
