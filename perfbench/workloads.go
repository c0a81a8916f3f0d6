package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"time"

	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/apps/spmv"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Every app workload runs phantom on the apu-ssd tree: SSD storage at the
// root, the paper's 2 GiB DRAM staging level with the APU's GPU and CPU.
const (
	stageMiB   = 2048
	storageMiB = 24576
	gib        = 1 << 30

	// traceEvents sizes the traced run's event ring so that no span of the
	// largest workload (hotspot-steal, about 0.5M spans) is dropped before
	// the critical-path walk.
	traceEvents = 1 << 21
)

// A bench is one named workload: a set of inputs and the entry point it drives.
type bench struct {
	name string
	// setup builds a fresh instance (topology, runtime, scenario) whose
	// call is the timed section. traced attaches the trace recorder and
	// metrics registry.
	setup func(seed int64, traced bool) (*trial, error)
	// check runs small functional instances through the same entry point
	// and options and compares them with the host reference.
	check func(seed int64, t *tally)
	// extras adds the traced-only per-layer metrics that need runs of
	// their own (a baseline, a replay, a rate search).
	extras func(seed int64, m map[string]float64) error
}

// trial is one set-up instance.
type trial struct {
	call func() error
	// finish summarises the finished call. With full set it also derives
	// the virtual and per-layer metrics, which needs the traced instance.
	finish func(full bool) *outcome
}

// outcome is what one call produced.
type outcome struct {
	// digest is the SHA-256 over the virtual outputs: the Breakdown, the
	// scheduler and cache counters, and serve job records.
	digest string
	// ops counts the call's own checked operations (serve jobs); refused
	// counts serve arrivals admission control turned away.
	ops     tally
	refused int64
	// metrics holds the virtual and per-layer metrics (full finish only).
	metrics map[string]float64
}

var workloads = []*bench{
	{name: "hotspot-steal", setup: hotspotSetup, check: hotspotCheck, extras: hotspotExtras},
	{name: "gemm-tasks", setup: gemmSetup, check: gemmCheck, extras: gemmExtras},
	{name: "spmv-tasks", setup: spmvSetup, check: spmvCheck, extras: spmvExtras},
	{name: "serve-mix", setup: serveSetup, check: serveCheck, extras: serveExtras},
}

func workloadByName(name string) *bench {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// newRuntime builds an apu-ssd runtime. cacheBytes > 0 turns the staging
// cache on at that capacity; traced attaches a trace recorder and a
// metrics registry (both observation only).
func newRuntime(phantom bool, storage, dram int64, cacheBytes int64, traced bool) (*core.Runtime, *obs.Registry) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: storage, DRAMMiB: dram, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	if cacheBytes > 0 {
		opts.Cache = core.CacheOptions{Enabled: true, CapacityBytes: cacheBytes}
	}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		opts.Trace = trace.NewRecorder(trace.Options{MaxEvents: traceEvents})
	}
	return core.NewRuntime(e, tree, opts), reg
}

// digester accumulates the virtual-output digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) ints(vs ...int64) {
	for _, v := range vs {
		_ = binary.Write(d.h, binary.LittleEndian, v) // hash writes cannot fail
	}
}

// run folds in a run's Breakdown: elapsed time, every category's busy time
// and the staging-cache counters.
func (d *digester) run(st core.RunStats) {
	bd := st.Breakdown
	d.ints(int64(st.Elapsed), int64(bd.Total()))
	for _, c := range trace.Categories {
		d.ints(int64(bd.Busy(c)))
	}
	_ = binary.Write(d.h, binary.LittleEndian, *bd.Cache())
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// appMetrics derives the metrics every app workload shares from a traced
// run: virtual makespan and moved bytes, the Breakdown, the critical path,
// the staging cache, and the engine's dispatch counters.
func appMetrics(rt *core.Runtime, reg *obs.Registry, st core.RunStats) map[string]float64 {
	m := zeroLayers()
	m["virtual_s"] = st.Elapsed.Seconds()
	rt.SyncMetrics()
	m["moved_gib"] = movedBytes(reg) / gib
	bd := st.Breakdown
	for _, c := range []trace.Category{trace.IO, trace.Transfer, trace.GPUCompute, trace.CPUCompute, trace.BufferSetup, trace.Runtime} {
		m["core.busy_s."+c.String()] = bd.Busy(c).Seconds()
	}
	if rec := rt.TraceRecorder(); rec != nil {
		if rec.Dropped() > 0 {
			fmt.Printf("warning: trace ring dropped %d events; critical path is partial\n", rec.Dropped())
		}
		// Structural spans (category None, such as a worker's whole task)
		// enclose the charged work; the walk runs over charged spans only.
		var charged []trace.Event
		for _, ev := range rec.Events() {
			if ev.Cat != trace.None {
				charged = append(charged, ev)
			}
		}
		cp := trace.CriticalPath(charged, trace.SummaryOptions{})
		if l := cp.Length(); l > 0 {
			by := map[trace.Category]sim.Time{}
			for _, s := range cp.Segments {
				if !s.Idle {
					by[s.Span.Cat] += s.Dur()
				}
			}
			for _, c := range []trace.Category{trace.IO, trace.Transfer, trace.GPUCompute, trace.CPUCompute} {
				m["core.critpath_frac."+c.String()] = float64(by[c]) / float64(l)
			}
		}
	}
	cacheMetrics(m, *bd.Cache())
	engineMetrics(m, rt.Engine().Stats())
	return m
}

// movedBytes totals the per-node northup_moved_bytes_total series: every
// byte a move charged anywhere in the tree.
func movedBytes(reg *obs.Registry) float64 {
	total := 0.0
	for name, v := range reg.Flatten() {
		if strings.HasPrefix(name, "northup_moved_bytes_total") {
			total += v
		}
	}
	return total
}

func cacheMetrics(m map[string]float64, c trace.CacheStats) {
	m["cache.hit_frac"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	m["cache.hit_bytes_frac"] = ratio(float64(c.HitBytes), float64(c.HitBytes+c.MissBytes))
	m["cache.evictions"] = float64(c.Evictions)
	m["cache.bypasses"] = float64(c.Bypasses)
	m["cache.invalidations"] = float64(c.Invalidations)
	m["cache.prefetch_waste_frac"] = ratio(float64(c.Prefetches-c.PrefetchHits), float64(c.Prefetches))
}

// engineMetrics reports the dispatch counters summed over engines.
func engineMetrics(m map[string]float64, stats ...sim.Stats) {
	var events, callbacks, procs, wall float64
	for _, st := range stats {
		events += float64(st.Events)
		callbacks += float64(st.Callbacks)
		procs += float64(st.Procs)
		wall += float64(st.Wall.Nanoseconds())
	}
	m["sim.events"] = events
	m["sim.procs"] = procs
	m["sim.callback_frac"] = ratio(callbacks, events)
	m["sim.ns_per_event"] = ratio(wall, events)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianDuration times fn reps times and returns the median in seconds.
func medianDuration(reps int, fn func()) float64 {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds)
}

// --- hotspot-steal ---------------------------------------------------------

// HotSpot-2D at Fig. 11's largest point: a 32768^2 grid in 8192^2 chunks,
// 60 iterations, 32 GPU queues, CPU+GPU work stealing.
const (
	hotM      = 32768
	hotChunk  = 8192
	hotIters  = 60
	hotQueues = 32
	// hotStorageMiB holds the grid plus outputs, as in the figure.
	hotStorageMiB = 5 * hotM * hotM * 4 >> 20
)

func hotspotConfig(seed int64, mode hotspot.StealMode) hotspot.StealConfig {
	return hotspot.StealConfig{M: hotM, ChunkDim: hotChunk, Seed: seed, Iters: hotIters, GPUQueues: hotQueues, Mode: mode}
}

func hotspotSetup(seed int64, traced bool) (*trial, error) {
	rt, reg := newRuntime(true, hotStorageMiB, stageMiB, 0, traced)
	var res *hotspot.StealResult
	return &trial{
		call: func() (err error) {
			res, err = hotspot.RunSteal(rt, hotspotConfig(seed, hotspot.CPUGPU))
			return err
		},
		finish: func(full bool) *outcome {
			d := newDigester()
			d.run(res.Stats)
			d.ints(res.Steals, res.Pops, res.TasksByGPU, res.TasksByCPU, res.Failovers)
			out := &outcome{digest: d.sum()}
			if full {
				m := appMetrics(rt, reg, res.Stats)
				m["sched.pops"] = float64(res.Pops)
				m["sched.steals"] = float64(res.Steals)
				m["sched.steal_frac"] = ratio(float64(res.Steals), float64(res.Pops+res.Steals))
				m["sched.cpu_task_frac"] = ratio(float64(res.TasksByCPU), float64(res.TasksByCPU+res.TasksByGPU))
				out.metrics = m
			}
			return out
		},
	}, nil
}

// hotspotExtras measures sched.steal_gain: the GPU-only makespan over the
// CPU+GPU one, minus one (Fig. 11 reports gains of up to 24%).
func hotspotExtras(seed int64, m map[string]float64) error {
	rt, _ := newRuntime(true, hotStorageMiB, stageMiB, 0, false)
	res, err := hotspot.RunSteal(rt, hotspotConfig(seed, hotspot.GPUOnly))
	if err != nil {
		return err
	}
	m["sched.steal_gain"] = res.Stats.Elapsed.Seconds()/m["virtual_s"] - 1
	return nil
}

// hotspotCheck runs the stealing scheduler functionally on a single-chunk
// grid (which must equal the global reference) and on a 4x4-chunk grid
// (which must equal the chunk-blocked reference), bit for bit.
func hotspotCheck(seed int64, t *tally) {
	const n, iters = 256, 8
	for _, chunk := range []int{n, n / 4} {
		rt, _ := newRuntime(false, 64, 64, 0, false)
		cfg := hotspot.StealConfig{M: n, ChunkDim: chunk, Seed: seed, Iters: iters, GPUQueues: hotQueues, Mode: hotspot.CPUGPU}
		res, err := hotspot.RunSteal(rt, cfg)
		what := fmt.Sprintf("hotspot functional check (n=%d chunk=%d)", n, chunk)
		if err != nil {
			t.add(false, fmt.Sprintf("%s: %v", what, err))
			continue
		}
		g := workload.HotSpotGrid(n, seed)
		var want []float32
		if chunk == n {
			want = hotspot.Reference(g.Temp, g.Power, n, iters)
		} else if want, err = hotspot.ReferenceBlocked(g.Temp, g.Power, n, chunk, iters); err != nil {
			t.add(false, fmt.Sprintf("%s: %v", what, err))
			continue
		}
		t.add(equalBits(res.Temp, want), what)
	}
}

// equalBits reports whether a and b hold the same float32 bit patterns.
func equalBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// --- gemm-tasks ------------------------------------------------------------

// GEMM 16384^2 as a 64x64 grid of extent-declared tasks with affinity
// placement; the staging cache holds one shard set (n*n floats), half the
// combined A+B working set, as in the affinity figure.
const (
	gemmN    = 16384
	gemmGrid = 64
)

func gemmSetup(seed int64, traced bool) (*trial, error) {
	rt, reg := newRuntime(true, storageMiB, stageMiB, gemmN*gemmN*4, traced)
	cfg := gemm.Config{N: gemmN, Seed: seed, ShardDim: gemmN / gemmGrid}
	var res *gemm.Result
	var st *taskgraph.Stats
	return &trial{
		call: func() (err error) {
			res, st, err = gemm.RunTasks(rt, cfg, taskgraph.Options{Affinity: true})
			return err
		},
		finish: func(full bool) *outcome {
			return taskOutcome(rt, reg, res.Stats, st, full)
		},
	}, nil
}

// taskOutcome digests and summarises one task-graph run.
func taskOutcome(rt *core.Runtime, reg *obs.Registry, rs core.RunStats, st *taskgraph.Stats, full bool) *outcome {
	d := newDigester()
	d.run(rs)
	d.ints(int64(st.Tasks), st.Pops, st.Steals, st.AffinityPicks, st.SavedBytes)
	out := &outcome{digest: d.sum()}
	if full {
		m := appMetrics(rt, reg, rs)
		m["sched.pops"] = float64(st.Pops)
		m["sched.steals"] = float64(st.Steals)
		m["sched.steal_frac"] = ratio(float64(st.Steals), float64(st.Pops+st.Steals))
		m["taskgraph.tasks"] = float64(st.Tasks)
		m["taskgraph.affinity_picks"] = float64(st.AffinityPicks)
		m["taskgraph.saved_gib"] = float64(st.SavedBytes) / gib
		out.metrics = m
	}
	return out
}

// gemmExtras times taskgraph.Graph.Add on the workload's own extents: one
// task per C block reading its A row shard and B column shard.
func gemmExtras(seed int64, m map[string]float64) error {
	rt, _ := newRuntime(true, storageMiB, stageMiB, 0, false)
	root := rt.Tree().Root()
	const s = gemmN / gemmGrid
	shard, block := int64(s)*gemmN*4, int64(s)*s*4
	var bufs [3]*core.Buffer
	for i, name := range []string{"A", "B", "C"} {
		b, err := rt.CreateInput(root, name, gemmN*gemmN*4, nil)
		if err != nil {
			return err
		}
		bufs[i] = b
	}
	tasks := make([]taskgraph.Task, 0, gemmGrid*gemmGrid)
	for i := int64(0); i < gemmGrid; i++ {
		for j := int64(0); j < gemmGrid; j++ {
			tasks = append(tasks, taskgraph.Task{
				Name:   "gemm-block",
				Reads:  []taskgraph.Extent{{Buf: bufs[0], Off: i * shard, Len: shard}, {Buf: bufs[1], Off: j * shard, Len: shard}},
				Writes: []taskgraph.Extent{{Buf: bufs[2], Off: (i*gemmGrid + j) * block, Len: block}},
			})
		}
	}
	m["taskgraph.add_us_per_task"] = replayAdd(tasks)
	return nil
}

// replayAdd adds copies of tasks to fresh graphs and returns the median
// microseconds per Add.
func replayAdd(tasks []taskgraph.Task) float64 {
	sec := medianDuration(3, func() {
		g := taskgraph.New()
		for i := range tasks {
			t := tasks[i]
			g.Add(&t)
		}
	})
	return sec * 1e6 / float64(len(tasks))
}

// gemmCheck runs the same task-graph entry point and options functionally
// on an 8x8 grid and compares C with the host reference bit for bit.
func gemmCheck(seed int64, t *tally) {
	const n, grid = 256, 8
	rt, _ := newRuntime(false, 64, 64, n*n*4, false)
	res, _, err := gemm.RunTasks(rt, gemm.Config{N: n, Seed: seed, ShardDim: n / grid}, taskgraph.Options{Affinity: true})
	const what = "gemm functional check (n=256, 8x8 tasks)"
	if err != nil {
		t.add(false, fmt.Sprintf("%s: %v", what, err))
		return
	}
	want := make([]float32, n*n)
	gemm.Reference(want, workload.Dense(n, n, seed), workload.Dense(n, n, seed+1), n, n, n)
	t.add(equalBits(res.C, want), what)
}

// --- spmv-tasks ------------------------------------------------------------

// SpMV at the paper's 16M rows: power-law rows, 16 nnz/row, 3 power
// iterations over 256 chunks with affinity placement; the staging cache
// holds half the matrix payload, so each pass scans a working set twice
// the cache.
const (
	spmvRows   = 16 << 20
	spmvNNZ    = 16
	spmvIters  = 3
	spmvChunks = 256
	spmvKind   = workload.SparsePowerLaw
)

func spmvConfig(n int, seed int64) spmv.Config {
	return spmv.Config{N: n, AvgNNZ: spmvNNZ, Kind: spmvKind, Seed: seed, Iters: spmvIters, Chunks: spmvChunks}
}

func spmvSetup(seed int64, traced bool) (*trial, error) {
	rt, reg := newRuntime(true, storageMiB, stageMiB, spmvRows*spmvNNZ*8/2, traced)
	var res *spmv.Result
	var st *taskgraph.Stats
	return &trial{
		call: func() (err error) {
			res, st, err = spmv.RunTasks(rt, spmvConfig(spmvRows, seed), taskgraph.Options{Affinity: true})
			return err
		},
		finish: func(full bool) *outcome {
			return taskOutcome(rt, reg, res.Stats, st, full)
		},
	}, nil
}

// spmvExtras times the input generator with the workload's arguments and
// replays the workload's chunk extents into taskgraph.Graph.Add.
func spmvExtras(seed int64, m map[string]float64) error {
	var rowPtr []int32
	m["workload.gen_s"] = medianDuration(3, func() {
		rowPtr = workload.SparseRowPtr(spmvKind, spmvRows, spmvNNZ, seed)
	})
	rt, _ := newRuntime(true, storageMiB, stageMiB, 0, false)
	root := rt.Tree().Root()
	nnz := int64(rowPtr[spmvRows])
	var bufs []*core.Buffer
	for _, f := range []struct {
		name string
		size int64
	}{{"rowptr", (spmvRows + 1) * 4}, {"col", nnz * 4}, {"val", nnz * 4}, {"x", spmvRows * 4}, {"y", spmvRows * 4}} {
		b, err := rt.CreateInput(root, f.name, f.size, nil)
		if err != nil {
			return err
		}
		bufs = append(bufs, b)
	}
	row, col, val, x, y := bufs[0], bufs[1], bufs[2], bufs[3], bufs[4]
	var tasks []taskgraph.Task
	for it := 0; it < spmvIters; it++ {
		for c := 0; c < spmvChunks; c++ {
			r0, r1 := int64(spmvRows*c/spmvChunks), int64(spmvRows*(c+1)/spmvChunks)
			off, k := int64(rowPtr[r0])*4, int64(rowPtr[r1]-rowPtr[r0])*4
			tasks = append(tasks, taskgraph.Task{
				Name: "spmv-shard",
				Reads: []taskgraph.Extent{{Buf: row, Off: r0 * 4, Len: (r1 - r0 + 1) * 4},
					{Buf: col, Off: off, Len: k}, {Buf: val, Off: off, Len: k}, {Buf: x, Len: spmvRows * 4}},
				Writes: []taskgraph.Extent{{Buf: y, Off: r0 * 4, Len: (r1 - r0) * 4}},
			})
		}
		if it < spmvIters-1 {
			tasks = append(tasks, taskgraph.Task{Name: "spmv-normalize",
				Reads:  []taskgraph.Extent{{Buf: y, Len: spmvRows * 4}},
				Writes: []taskgraph.Extent{{Buf: x, Len: spmvRows * 4}}})
		}
	}
	m["taskgraph.add_us_per_task"] = replayAdd(tasks)
	return nil
}

// spmvCheck runs the task-graph entry point functionally on a 16384-row
// instance with the workload's options, and compares y with a power
// iteration of the host reference. The comparison is bit for bit unless a
// row is longer than spmv.VectorLongThreshold: the kernel sums such a row
// in slices, so its rounding legitimately differs, and the check falls
// back to the package tests' tolerance, relative to each value.
func spmvCheck(seed int64, t *tally) {
	const n = 16384
	mat := workload.Sparse(spmvKind, n, spmvNNZ, seed)
	rt, _ := newRuntime(false, 64, 64, int64(mat.NNZ())*8/2, false)
	cfg := spmvConfig(n, seed)
	cfg.Matrix = mat
	res, _, err := spmv.RunTasks(rt, cfg, taskgraph.Options{Affinity: true})
	const what = "spmv functional check (n=16384, 256 chunks, 3 iterations)"
	if err != nil {
		t.add(false, fmt.Sprintf("%s: %v", what, err))
		return
	}
	x := workload.Vector(n, seed+1)
	var y []float32
	for it := 0; it < spmvIters; it++ {
		y = spmv.Reference(mat, x)
		norm := float32(0)
		for _, v := range y {
			if v < 0 {
				v = -v
			}
			norm = max(norm, v)
		}
		if norm == 0 {
			norm = 1
		}
		for i, v := range y {
			x[i] = v / norm
		}
	}
	split := false
	for r := 0; r < n; r++ {
		split = split || mat.RowNNZ(r) > spmv.VectorLongThreshold
	}
	if !split {
		t.add(equalBits(res.Y, y), what+", bit for bit")
		return
	}
	tol := 1e-4 * math.Sqrt(spmvNNZ)
	ok := len(res.Y) == len(y)
	for i := 0; ok && i < len(y); i++ {
		ok = math.Abs(float64(res.Y[i]-y[i])) <= tol*max(1, math.Abs(float64(y[i])))
	}
	t.add(ok, what+", within tolerance (split long rows)")
}
