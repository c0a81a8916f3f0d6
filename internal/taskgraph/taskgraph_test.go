package taskgraph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

// newStagedRuntime builds a 2-level SSD+DRAM tree (8 MiB of DRAM) with a
// staging cache of cacheMiB (0: off).
func newStagedRuntime(cacheMiB int64) (*core.Runtime, *topo.Node) {
	return newSizedRuntime(8, cacheMiB)
}

func newSizedRuntime(dramMiB, cacheMiB int64) (*core.Runtime, *topo.Node) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: dramMiB, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Phantom = true
	if cacheMiB > 0 {
		opts.Cache.Enabled = true
		opts.Cache.CapacityBytes = cacheMiB << 20
	}
	rt := core.NewRuntime(e, tree, opts)
	return rt, tree.Root().Children[0]
}

func extentTask(name string, reads, writes []Extent, order *[]string) *Task {
	return &Task{
		Name:   name,
		Reads:  reads,
		Writes: writes,
		Cost:   1,
		Run: func(c *core.Ctx) error {
			*order = append(*order, name)
			return nil
		},
	}
}

func TestDependencyInference(t *testing.T) {
	rt, _ := newStagedRuntime(0)
	var fa, fb *core.Buffer
	_, err := rt.Run("setup", func(c *core.Ctx) error {
		var err error
		if fa, err = c.Alloc(4096); err != nil {
			return err
		}
		fb, err = c.Alloc(4096)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	g := New()
	var order []string
	w := g.Add(extentTask("writer", nil, []Extent{{fa, 0, 1024}}, &order))
	raw := g.Add(extentTask("raw", []Extent{{fa, 512, 512}}, nil, &order))
	waw := g.Add(extentTask("waw", nil, []Extent{{fa, 0, 256}}, &order))
	war := g.Add(extentTask("war", nil, []Extent{{fa, 768, 512}}, &order)) // WAR on raw's read
	free := g.Add(extentTask("free", []Extent{{fb, 0, 1024}}, nil, &order))
	rr := g.Add(extentTask("rr", []Extent{{fb, 0, 1024}}, nil, &order)) // read-read: no edge

	if w.nblock != 0 || raw.nblock != 1 || waw.nblock != 1 {
		t.Fatalf("RAW/WAW inference wrong: %d %d %d", w.nblock, raw.nblock, waw.nblock)
	}
	// war overlaps writer's write (WAW) and raw's read (WAR).
	if war.nblock != 2 {
		t.Fatalf("WAR inference wrong: nblock=%d", war.nblock)
	}
	if free.nblock != 0 || rr.nblock != 0 {
		t.Fatalf("read-read sharing created edges: %d %d", free.nblock, rr.nblock)
	}
}

func TestRunExecutesAllRespectingDeps(t *testing.T) {
	for _, affinity := range []bool{false, true} {
		rt, dram := newStagedRuntime(4)
		var buf *core.Buffer
		if _, err := rt.Run("setup", func(c *core.Ctx) error {
			var err error
			buf, err = c.Alloc(1 << 20)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		g := New()
		var order []string
		const chains = 4
		for ch := 0; ch < chains; ch++ {
			ext := []Extent{{buf, int64(ch) * 1024, 1024}}
			for k := 0; k < 3; k++ {
				g.Add(extentTask(fmt.Sprintf("c%d.%d", ch, k), ext, ext, &order))
			}
		}
		_, err := rt.Run("run", func(c *core.Ctx) error {
			st, err := g.Run(c, Options{Workers: 3, Affinity: affinity, Node: dram})
			if err != nil {
				return err
			}
			if st.Tasks != chains*3 {
				return fmt.Errorf("st.Tasks=%d", st.Tasks)
			}
			if affinity && st.AffinityPicks != chains*3 {
				return fmt.Errorf("AffinityPicks=%d", st.AffinityPicks)
			}
			if !affinity && st.Pops+st.Steals != chains*3 {
				return fmt.Errorf("pops+steals=%d", st.Pops+st.Steals)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("affinity=%v: %v", affinity, err)
		}
		if len(order) != chains*3 {
			t.Fatalf("affinity=%v: ran %d of %d tasks", affinity, len(order), chains*3)
		}
		// Within each chain the k-order must be preserved.
		pos := map[string]int{}
		for i, name := range order {
			pos[name] = i
		}
		for ch := 0; ch < chains; ch++ {
			for k := 1; k < 3; k++ {
				a := pos[fmt.Sprintf("c%d.%d", ch, k-1)]
				b := pos[fmt.Sprintf("c%d.%d", ch, k)]
				if a >= b {
					t.Fatalf("affinity=%v: chain %d ran out of order", affinity, ch)
				}
			}
		}
	}
}

func TestFirstErrorAborts(t *testing.T) {
	for _, affinity := range []bool{false, true} {
		rt, dram := newStagedRuntime(0)
		boom := errors.New("boom")
		g := New()
		ran := 0
		g.Add(&Task{Name: "bad", Cost: 1, Run: func(c *core.Ctx) error { return boom }})
		for i := 0; i < 8; i++ {
			i := i
			var dep []Extent
			g.Add(&Task{Name: fmt.Sprintf("t%d", i), Cost: 1, Reads: dep,
				Run: func(c *core.Ctx) error { ran++; return nil }})
		}
		_, err := rt.Run("run", func(c *core.Ctx) error {
			_, err := g.Run(c, Options{Workers: 2, Affinity: affinity, Node: dram})
			return err
		})
		if !errors.Is(err, boom) {
			t.Fatalf("affinity=%v: err=%v", affinity, err)
		}
	}
}

// placements runs a fixed random graph and returns the execution order.
func placements(t *testing.T, seed int64, affinity bool, prof *sched.ProfileScheduler) []string {
	t.Helper()
	rt, dram := newStagedRuntime(2)
	var src *core.Buffer
	if _, err := rt.Run("setup", func(c *core.Ctx) error {
		var err error
		src, err = c.Alloc(8 << 20)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	g := New()
	var order []string
	// A deterministic pseudo-random extent layout derived from the seed.
	state := uint64(seed)*2654435761 + 12345
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state>>33) % mod
	}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("t%02d", i)
		off := next(7) * (1 << 20)
		ln := int64(1<<20) + next(1<<19)
		g.Add(&Task{
			Name: name, Kind: "k", Cost: float64(ln),
			Reads: []Extent{{src, off, ln}},
			Run: func(c *core.Ctx) error {
				order = append(order, name)
				return c.Descend(dram, func(dc *core.Ctx) error {
					_, err := dc.RunCPU(float64(ln), float64(ln), func() {})
					return err
				})
			},
		})
	}
	if _, err := rt.Run("run", func(c *core.Ctx) error {
		_, err := g.Run(c, Options{Workers: 3, Affinity: affinity, Node: dram, Profile: prof})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return order
}

func TestPlacementDeterministic(t *testing.T) {
	// The same graph must schedule identically across repeated runs, for
	// both policies, with and without a warm-started profile.
	f := func(seed int64) bool {
		for _, affinity := range []bool{false, true} {
			a := placements(t, seed, affinity, sched.NewProfileScheduler())
			b := placements(t, seed, affinity, sched.NewProfileScheduler())
			if !reflect.DeepEqual(a, b) {
				t.Logf("seed=%d affinity=%v: %v != %v", seed, affinity, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileFeedsBack(t *testing.T) {
	prof := sched.NewProfileScheduler()
	placements(t, 1, true, prof)
	if prof.Samples("k") == 0 {
		t.Fatal("profile recorded no samples")
	}
	// Export/import round-trips the learned state for warm starts.
	data, err := prof.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	warm := sched.NewProfileScheduler()
	if err := warm.ImportJSON(data); err != nil {
		t.Fatal(err)
	}
	if warm.Samples("k") != prof.Samples("k") {
		t.Fatalf("round-trip lost samples: %d != %d", warm.Samples("k"), prof.Samples("k"))
	}
	p1, ok1 := prof.Predict("k", 1<<20)
	p2, ok2 := warm.Predict("k", 1<<20)
	if !ok1 || !ok2 || p1 != p2 {
		t.Fatalf("round-trip changed prediction: %v/%v %v/%v", p1, ok1, p2, ok2)
	}
}

func TestOverlapBytes(t *testing.T) {
	rt, _ := newStagedRuntime(0)
	var b *core.Buffer
	if _, err := rt.Run("setup", func(c *core.Ctx) error {
		var err error
		b, err = c.Alloc(4096)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, o Extent
		want int64
	}{
		{Extent{b, 0, 100}, Extent{b, 50, 100}, 50},
		{Extent{b, 0, 100}, Extent{b, 100, 100}, 0},
		{Extent{b, 0, 100}, Extent{b, 0, 100}, 100},
		{Extent{b, 10, 10}, Extent{b, 0, 100}, 10},
		{Extent{nil, 0, 100}, Extent{b, 0, 100}, 0},
	}
	for i, tc := range cases {
		if got := overlapBytes(tc.a, tc.o); got != tc.want {
			t.Fatalf("case %d: got %d want %d", i, got, tc.want)
		}
	}
}

// --- Reference models -----------------------------------------------------

// conflicts is the pairwise test the dependence index replaces: t must wait
// for prev on any RAW, WAW or WAR overlap between their declared extents.
func conflicts(prev, t *Task) bool {
	for _, w := range prev.Writes {
		for _, r := range t.Reads {
			if w.overlaps(r) {
				return true
			}
		}
		for _, w2 := range t.Writes {
			if w.overlaps(w2) {
				return true
			}
		}
	}
	for _, r := range prev.Reads {
		for _, w := range t.Writes {
			if r.overlaps(w) {
				return true
			}
		}
	}
	return false
}

// scanDeps returns every task's successors and predecessor count under the
// pairwise scan over all earlier tasks.
func scanDeps(tasks []*Task) (outs [][]int, nblock []int) {
	outs = make([][]int, len(tasks))
	nblock = make([]int, len(tasks))
	for i, t := range tasks {
		for j := 0; j < i; j++ {
			if conflicts(tasks[j], t) {
				outs[j] = append(outs[j], i)
				nblock[i]++
			}
		}
	}
	return outs, nblock
}

// allocBuffers allocates n buffers of size bytes at the root of a fresh
// runtime.
func allocBuffers(tb testing.TB, n int, size int64) []*core.Buffer {
	tb.Helper()
	rt, _ := newStagedRuntime(0)
	bufs := make([]*core.Buffer, n)
	if _, err := rt.Run("setup", func(c *core.Ctx) error {
		for i := range bufs {
			var err error
			if bufs[i], err = c.Alloc(size); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return bufs
}

// TestIndexMatchesPairwiseScan: over random extent sets on 1-3 buffers —
// overlapping, adjacent, duplicate, zero-length and nil-Buf extents — the
// index gives every task exactly the successors (in ascending order) and
// predecessor count of the pairwise scan.
func TestIndexMatchesPairwiseScan(t *testing.T) {
	const size = 64
	pool := allocBuffers(t, 3, size)
	f := func(seed int64, nbuf, ntask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bufs := pool[:int(nbuf)%3+1]
		var prev []Extent
		extent := func() Extent {
			var e Extent
			switch k := rng.Intn(10); {
			case k == 0:
				return Extent{Off: int64(rng.Intn(size))} // nil Buf, zero length
			case k <= 2 && len(prev) > 0: // duplicate
				return prev[rng.Intn(len(prev))]
			case k == 3 && len(prev) > 0: // adjacent to an earlier extent
				p := prev[rng.Intn(len(prev))]
				if p.Buf == nil || p.Off+p.Len >= size {
					return p
				}
				e = Extent{Buf: p.Buf, Off: p.Off + p.Len}
				e.Len = int64(rng.Intn(int(size-e.Off) + 1))
			default:
				e = Extent{Buf: bufs[rng.Intn(len(bufs))], Off: int64(rng.Intn(size))}
				if rng.Intn(5) > 0 { // else zero-length
					e.Len = 1 + int64(rng.Intn(int(min(size-e.Off, 24))))
				}
			}
			prev = append(prev, e)
			return e
		}
		g := New()
		for i := 0; i < int(ntask)%40+1; i++ {
			t := &Task{Name: fmt.Sprint(i)}
			for n := rng.Intn(4); n > 0; n-- {
				t.Reads = append(t.Reads, extent())
			}
			for n := rng.Intn(3); n > 0; n-- {
				t.Writes = append(t.Writes, extent())
			}
			g.Add(t)
		}
		if g.err != nil {
			t.Logf("generator made a malformed extent: %v", g.err)
			return false
		}
		outs, nblock := scanDeps(g.Tasks())
		for i, tk := range g.Tasks() {
			if tk.nblock != nblock[i] || !slices.Equal(tk.outs, outs[i]) {
				t.Logf("seed %d task %d: index outs=%v nblock=%d, scan outs=%v nblock=%d",
					seed, i, tk.outs, tk.nblock, outs[i], nblock[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// shadowPlacer runs the affinity placer while replaying every pick against
// the full rescore it replaces: price every ready task from scratch, probing
// the cache for each read extent, and break ties by overlap with the
// worker's last reads, then by lowest ID.
type shadowPlacer struct {
	*affinityPlacer
	ready []int
	last  []*Task
	picks int
	diffs []string
}

func (s *shadowPlacer) push(w, id int) {
	s.affinityPlacer.push(w, id)
	s.ready = append(s.ready, id)
}

// rescore is the reference pick: the placer's pre-index implementation.
func (s *shadowPlacer) rescore(w int) (id int, saved int64) {
	p := s.affinityPlacer
	score := func(t *Task) (price float64, resident int64) {
		var computeSec, moveSec float64
		if p.profile != nil {
			if pt, ok := p.profile.Predict(t.Kind, t.Cost); ok {
				computeSec = pt.Seconds()
			}
		}
		for _, ex := range t.Reads {
			if ex.Buf == nil || ex.Len <= 0 || ex.Buf.Node() == p.node {
				continue
			}
			r := p.rt.CacheResidentBytes(p.node, ex.Buf, ex.Off, ex.Len)
			resident += r
			moveSec += fetchSeconds(ex.Buf, p.node, ex.Len-r)
		}
		return computeSec + moveSec, resident
	}
	last := s.last[w]
	best, bestSaved := -1, int64(0)
	var bestScore float64
	var bestAffin int64
	for i, id := range s.ready {
		t := p.g.tasks[id]
		sc, resident := score(t)
		affin := int64(0)
		if last != nil {
			affin = sharedBytes(t, last)
		}
		if best < 0 || sc < bestScore || (sc == bestScore && (affin > bestAffin ||
			(affin == bestAffin && s.ready[best] > id))) {
			best, bestScore, bestAffin, bestSaved = i, sc, affin, resident
		}
	}
	return s.ready[best], bestSaved
}

func (s *shadowPlacer) pick(w int) (int, string, int64, bool) {
	if len(s.ready) == 0 {
		return s.affinityPlacer.pick(w)
	}
	// Beyond the pick itself, every cached move price must equal a fresh
	// one, so a missed residency change shows even when it would not yet
	// have changed the winner.
	s.flush()
	for _, id := range s.ready {
		if move, _ := s.price(s.g.tasks[id]); s.at[id] == nil || s.at[id].move != move {
			s.diffs = append(s.diffs, fmt.Sprintf("before pick %d: task %d is stale", s.picks+1, id))
		}
	}
	wantID, wantSaved := s.rescore(w)
	id, policy, saved, ok := s.affinityPlacer.pick(w)
	s.picks++
	if !ok || id != wantID || saved != wantSaved {
		s.diffs = append(s.diffs, fmt.Sprintf("pick %d (worker %d): got task %d saved %d, rescore wants task %d saved %d",
			s.picks, w, id, saved, wantID, wantSaved))
	}
	if i := slices.Index(s.ready, id); i >= 0 {
		s.ready = slices.Delete(s.ready, i, i+1)
	}
	s.last[w] = s.affinityPlacer.g.tasks[id]
	return id, policy, saved, ok
}

// shadowRun builds a random graph over two 4 MiB storage sources and a
// releasable third, runs it on a 3 MiB staging cache (so fetches evict,
// writes invalidate and a task may release a source whose extents other
// ready tasks read), and returns the shadow placer and the run's stats.
// DRAM is sized for the worst case of every worker pinning three bypassed
// extents plus a write buffer.
func shadowRun(t *testing.T, seed int64, profiled bool) (*shadowPlacer, core.RunStats) {
	t.Helper()
	const chunk = 512 << 10
	rng := rand.New(rand.NewSource(seed))
	rt, dram := newSizedRuntime(32, 3)
	var srcs []*core.Buffer
	if _, err := rt.Run("setup", func(c *core.Ctx) error {
		for _, size := range []int64{8 * chunk, 8 * chunk, 4 * chunk} {
			b, err := c.Alloc(size)
			if err != nil {
				return err
			}
			srcs = append(srcs, b)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rel := srcs[2]
	released := false
	extent := func(b *core.Buffer) Extent {
		chunks := b.Size() / chunk
		off := rng.Int63n(chunks)
		n := 1 + rng.Int63n(min(2, chunks-off))
		return Extent{Buf: b, Off: off * chunk, Len: n * chunk}
	}
	g := New()
	for i := 0; i < 12+rng.Intn(30); i++ {
		tk := &Task{Name: fmt.Sprintf("t%d", i), Kind: []string{"a", "b"}[rng.Intn(2)],
			Cost: float64(1+rng.Intn(3)) * chunk}
		if rng.Intn(12) == 0 {
			tk.Run = func(c *core.Ctx) error {
				if released {
					return nil
				}
				released = true
				return c.Release(rel)
			}
			g.Add(tk)
			continue
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			tk.Reads = append(tk.Reads, extent(srcs[rng.Intn(3)]))
		}
		if rng.Intn(3) == 0 {
			tk.Writes = append(tk.Writes, extent(srcs[rng.Intn(2)]))
		}
		// A stray write, undeclared like a writer outside the graph, can hit
		// extents that running tasks hold pinned or in flight: the cache
		// dooms those entries instead of evicting them.
		var stray []Extent
		if rng.Intn(4) == 0 {
			stray = append(stray, extent(srcs[rng.Intn(2)]))
		}
		write := func(c *core.Ctx, exts []Extent) error {
			for _, ex := range exts {
				tmp, err := c.AllocAt(dram, ex.Len)
				if err != nil {
					return err
				}
				if err := c.MoveData(ex.Buf, tmp, ex.Off, 0, ex.Len); err != nil {
					return err
				}
				if err := c.Release(tmp); err != nil {
					return err
				}
			}
			return nil
		}
		tk.Run = func(c *core.Ctx) error {
			var pinned []*core.Buffer
			for _, ex := range tk.Reads {
				if ex.Buf == rel && released {
					continue
				}
				b, err := c.MoveDataDownCached(dram, ex.Buf, ex.Off, ex.Len)
				if err != nil {
					return err
				}
				pinned = append(pinned, b)
			}
			if err := c.Descend(dram, func(dc *core.Ctx) error {
				_, err := dc.RunCPU(tk.Cost, tk.Cost, func() {})
				return err
			}); err != nil {
				return err
			}
			if err := write(c, stray); err != nil {
				return err
			}
			for _, b := range pinned {
				if err := c.Unpin(b); err != nil {
					return err
				}
			}
			return write(c, tk.Writes)
		}
		g.Add(tk)
	}
	var prof *sched.ProfileScheduler
	if profiled {
		prof = sched.NewProfileScheduler()
	}
	workers := 2 + rng.Intn(2)
	var s *shadowPlacer
	stats, err := rt.Run("run", func(c *core.Ctx) error {
		s = &shadowPlacer{affinityPlacer: newAffinityPlacer(g, c.Runtime(), dram, prof, workers),
			last: make([]*Task, workers)}
		err := g.dispatch(c, s, dram, workers, prof)
		s.finish(&Stats{})
		return err
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return s, stats
}

// TestAffinityPickMatchesFullRescore is the shadow-placer property: on
// random graphs under cache churn, with the profile on and off, every pick
// of the incremental placer and its saved bytes equal the full rescore's.
func TestAffinityPickMatchesFullRescore(t *testing.T) {
	var evictions, invalidations, picks int64
	f := func(seed int64, profiled bool) bool {
		s, stats := shadowRun(t, seed, profiled)
		evictions += stats.Breakdown.Cache().Evictions
		invalidations += stats.Breakdown.Cache().Invalidations
		picks += int64(s.picks)
		for _, d := range s.diffs {
			t.Logf("seed %d profiled=%v: %s", seed, profiled, d)
		}
		return len(s.diffs) == 0
	}
	// A fixed source keeps the simulated workloads, and so the suite, repeatable.
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d picks, %d evictions, %d invalidations", picks, evictions, invalidations)
	// The property only means something if the cache actually churned.
	if evictions == 0 || invalidations == 0 || picks == 0 {
		t.Fatalf("no churn: %d evictions, %d invalidations, %d picks", evictions, invalidations, picks)
	}
}

// TestReleasedSourceReprices: ready readers are re-priced both when their
// extent becomes cached and when its source is released (a released
// source probes as non-resident although its entry stays pooled). A stale
// price in either direction reorders this one-worker schedule.
func TestReleasedSourceReprices(t *testing.T) {
	const mib = 1 << 20
	rt, dram := newStagedRuntime(4)
	var r, s, d *core.Buffer
	if _, err := rt.Run("setup", func(c *core.Ctx) error {
		var err error
		if r, err = c.Alloc(2 * mib); err != nil {
			return err
		}
		if s, err = c.Alloc(mib); err != nil {
			return err
		}
		d, err = c.AllocAt(dram, 64)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var order []string
	task := func(name string, reads, writes []Extent, body func(*core.Ctx) error) *Task {
		return &Task{Name: name, Cost: 1, Reads: reads, Writes: writes,
			Run: func(c *core.Ctx) error {
				order = append(order, name)
				if body == nil {
					return nil
				}
				return body(c)
			}}
	}
	g := New()
	// warm (free: it declares no reads) caches both halves of r without
	// declaring them, so it leaves no locality preference behind.
	g.Add(task("warm", nil, []Extent{{d, 0, 64}}, func(c *core.Ctx) error {
		for off := int64(0); off < 2*mib; off += mib {
			b, err := c.MoveDataDownCached(dram, r, off, mib)
			if err != nil {
				return err
			}
			if err := c.Unpin(b); err != nil {
				return err
			}
		}
		return nil
	}))
	g.Add(task("read-s", []Extent{{s, 0, mib}}, nil, nil))
	// read-r1 becomes free once r is cached and wins on ID over release
	// (free: its one read is already at the staging node).
	g.Add(task("read-r1", []Extent{{r, 0, mib}}, nil, nil))
	g.Add(task("release", []Extent{{d, 0, 64}}, nil, func(c *core.Ctx) error { return c.Release(r) }))
	// read-r2 costs as much as read-s again once r is released, and loses
	// the tie on ID.
	g.Add(task("read-r2", []Extent{{r, mib, mib}}, nil, nil))
	if _, err := rt.Run("run", func(c *core.Ctx) error {
		_, err := g.Run(c, Options{Workers: 1, Affinity: true, Node: dram})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"warm", "read-r1", "release", "read-s", "read-r2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}
