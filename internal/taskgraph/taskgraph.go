// Package taskgraph is the shared data-affinity task scheduler of the
// runtime: applications declare tasks with the byte extents they read and
// write plus a kernel cost hint, the graph infers dependencies from extent
// overlap in program order, and a small worker pool executes the resulting
// DAG either with locality-blind work stealing (the baseline every app
// hand-wired before) or with residency-aware affinity placement.
//
// The affinity policy prices each ready task as estimated compute time plus
// estimated bytes-to-move: input extents already staged at the scheduling
// node — resident, pinned, or in flight in the staging cache
// (internal/cache) — score zero, so the scheduler gravitates toward tasks
// whose data is already close, the placement heuristic of XKaapi-style
// affinity scheduling. Compute estimates come from a sched.ProfileScheduler
// learned online (or warm-started from an exported profile), so the scorer
// improves as the run progresses.
//
// Everything is deterministic: candidate scanning, scoring, and
// tie-breaking depend only on graph order and simulation state, so repeated
// runs with the same seed produce byte-identical schedules.
package taskgraph

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Extent is a half-open byte range of a buffer — the unit of the scheduler's
// dependence analysis and residency probing. Extents are matched the way the
// staging cache matches them: by the buffer's stable ID and exact range for
// residency, by range intersection for dependencies.
type Extent struct {
	Buf *core.Buffer
	Off int64
	Len int64
}

// overlaps reports whether two extents intersect in the same buffer.
func (e Extent) overlaps(o Extent) bool {
	if e.Buf == nil || o.Buf == nil || e.Buf.ID() != o.Buf.ID() {
		return false
	}
	return e.Off < o.Off+o.Len && o.Off < e.Off+e.Len
}

// overlapBytes returns the size of the intersection of two extents.
func overlapBytes(a, b Extent) int64 {
	if !a.overlaps(b) {
		return 0
	}
	lo, hi := a.Off, a.Off+a.Len
	if b.Off > lo {
		lo = b.Off
	}
	if b.Off+b.Len < hi {
		hi = b.Off + b.Len
	}
	return hi - lo
}

// Task is one schedulable unit: a body plus its declared data footprint.
type Task struct {
	// Name labels the task; Kind is the profile key (defaults to Name) —
	// tasks of one Kind share a fitted cost model in the ProfileScheduler.
	Name string
	Kind string

	// Reads and Writes declare the extents the body touches. The graph
	// serializes RAW, WAR and WAW overlaps in program order; disjoint tasks
	// run in any order, concurrently.
	Reads  []Extent
	Writes []Extent

	// Cost is the kernel cost hint in any consistent unit (flops, non-zeros,
	// cells); it is the size fed to the profile's linear cost model.
	Cost float64

	// Run executes the task. The context runs at the node Graph.Run was
	// called from, so bodies use the ordinary staging API
	// (MoveDataDownCached, Descend, ...) unchanged.
	Run func(*core.Ctx) error

	id     int
	outs   []int // task IDs unblocked by this task's completion
	nblock int   // predecessors not yet completed (at build time: total)
}

// ID returns the task's position in program order.
func (t *Task) ID() int { return t.id }

// Graph is an extent-declared task DAG under construction.
type Graph struct {
	tasks []*Task
	err   error // the first malformed extent, reported by Run

	// The dependence index (see index.go).
	bufs  map[int64]*bufIndex // buffer ID -> its spans
	spans blocks[span]
	links blocks[link]
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Len returns the number of tasks added so far.
func (g *Graph) Len() int { return len(g.tasks) }

// Tasks returns the tasks in program order (shared slice; callers must not
// mutate).
func (g *Graph) Tasks() []*Task { return g.tasks }

// Add appends t in program order and infers its dependencies: t waits on
// every earlier task whose writes overlap t's reads or writes, or whose
// reads overlap t's writes. Read-read sharing never orders tasks. Add
// returns t for chaining.
//
// A malformed extent (negative offset or length, a range past the end of
// its buffer, or bytes without a buffer) is not indexed; Add records the
// first one and Run reports it.
func (g *Graph) Add(t *Task) *Task {
	if t.Kind == "" {
		t.Kind = t.Name
	}
	t.id = len(g.tasks)
	if err := checkTask(t); err != nil {
		if g.err == nil {
			g.err = err
		}
	} else {
		g.index(t)
	}
	g.tasks = append(g.tasks, t)
	return t
}

// checkTask returns an error naming t's first malformed extent.
func checkTask(t *Task) error {
	for i, e := range t.Reads {
		if err := checkExtent(e); err != nil {
			return fmt.Errorf("taskgraph: task %d (%q) read extent %d %s", t.id, t.Name, i, err)
		}
	}
	for i, e := range t.Writes {
		if err := checkExtent(e); err != nil {
			return fmt.Errorf("taskgraph: task %d (%q) write extent %d %s", t.id, t.Name, i, err)
		}
	}
	return nil
}

// checkExtent rejects extents the overlap arithmetic cannot order. A
// zero-length extent without a buffer is legal and orders nothing.
func checkExtent(e Extent) error {
	var why string
	switch {
	case e.Off < 0 || e.Len < 0:
		why = "has a negative offset or length"
	case e.Buf == nil:
		if e.Len > 0 {
			why = "declares bytes without a buffer"
		}
	case e.Off > e.Buf.Size()-e.Len:
		why = fmt.Sprintf("runs past the end of its %d-byte buffer", e.Buf.Size())
	}
	if why == "" {
		return nil
	}
	return fmt.Errorf("[off %d, len %d] %s", e.Off, e.Len, why)
}

// Options configures one Graph.Run.
type Options struct {
	// Workers is the worker-pool width (default DefaultWorkers).
	Workers int

	// Affinity switches residency-aware placement on. Off, the pool runs
	// locality-blind work stealing over per-worker deques — the baseline the
	// A/B ablation compares against.
	Affinity bool

	// Node is the staging node placement is scored against (where task
	// inputs are cached); nil uses the node Graph.Run is called at.
	Node *topo.Node

	// Profile, when non-nil, supplies compute-time estimates per task Kind
	// and is fed every completed task, so estimates sharpen as the run
	// progresses. Import a ProfileSnapshot to warm-start it.
	Profile *sched.ProfileScheduler
}

// Stats reports how the pool dispatched the graph.
type Stats struct {
	// Tasks is the number of tasks in the graph.
	Tasks int
	// Pops and Steals count baseline-mode dispatches through the owner and
	// thief deque paths.
	Pops, Steals int64
	// AffinityPicks counts affinity-mode placements.
	AffinityPicks int64
	// SavedBytes is how many declared input bytes affinity placement found
	// already resident at the staging node — edge crossings the schedule
	// avoided paying.
	SavedBytes int64
}

// DefaultWorkers is the worker-pool width Graph.Run uses when
// Options.Workers is below 1.
const DefaultWorkers = 2

// Run executes the graph on a pool of workers spawned at c's node and
// returns dispatch statistics plus the first task error (remaining tasks
// are skipped once an error is observed). Placement decisions are counted
// in the metrics registry (northup_sched_* series) and emitted as trace
// instants on the queue track, so both policies are visible in the
// existing tooling.
//
// There is one worker loop; the policy is the placer it consults for the
// next ready task (see placer).
func (g *Graph) Run(c *core.Ctx, o Options) (*Stats, error) {
	st := &Stats{Tasks: len(g.tasks)}
	if g.err != nil {
		return st, g.err
	}
	if len(g.tasks) == 0 {
		return st, nil
	}
	workers := o.Workers
	if workers < 1 {
		workers = DefaultWorkers
	}
	workers = min(workers, len(g.tasks))
	node := o.Node
	if node == nil {
		node = c.Node()
	}
	rt := c.Runtime()

	var p placer
	if o.Affinity {
		p = newAffinityPlacer(g, rt, node, o.Profile, workers)
	} else {
		p = newStealPlacer(c, node, workers)
	}
	err := g.dispatch(c, p, node, workers, o.Profile)
	p.finish(st)
	return st, err
}

// dispatch runs the graph to completion (or first error) on workers that
// take their next task from p, crediting placements to node.
func (g *Graph) dispatch(c *core.Ctx, p placer, node *topo.Node, workers int, prof *sched.ProfileScheduler) error {
	rt := c.Runtime()

	// tokens carries one send per task that becomes ready; its capacity
	// covers the whole graph so sends never block, and closing it (all done,
	// or first error) releases every idle worker.
	tokens := sim.NewChan(rt.Engine(), len(g.tasks))
	closeTokens := func() {
		if !tokens.Closed() {
			tokens.Close()
		}
	}
	// ready hands task id to the placer on worker w's behalf (-1 while
	// seeding) and wakes one idle worker.
	ready := func(w, id int) {
		p.push(w, id)
		if !tokens.Closed() {
			tokens.TrySend(struct{}{})
		}
	}
	nblock := make([]int, len(g.tasks))
	for id, t := range g.tasks {
		nblock[id] = t.nblock
		if t.nblock == 0 {
			ready(-1, id)
		}
	}
	p.settle()

	var runErr error
	completed := 0
	wg := sim.NewWaitGroup(rt.Engine())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		c.Spawn(fmt.Sprintf("tg-worker%d", w), c.Node(), func(sub *core.Ctx) error {
			defer wg.Done()
			for {
				if _, ok := tokens.Recv(sub.Proc()); !ok {
					return nil
				}
				if runErr != nil {
					continue // draining after an abort
				}
				id, policy, saved, ok := p.pick(w)
				if !ok {
					continue
				}
				t := g.tasks[id]
				rt.NoteSchedPlacement(policy, node.ID, saved)
				sub.TraceInstant(trace.TrackQueue, "place", int64(id))
				start := sub.Proc().Now()
				if err := sub.Task(t.Kind, int64(t.Cost), t.Run); err != nil {
					if runErr == nil {
						runErr = err
					}
					closeTokens()
					continue
				}
				if prof != nil {
					prof.Record(t.Kind, t.Cost, sub.Proc().Now()-start)
				}
				completed++
				for _, d := range t.outs {
					nblock[d]--
					if nblock[d] == 0 {
						ready(w, d)
					}
				}
				p.settle()
				if completed == len(g.tasks) {
					closeTokens()
				}
			}
		})
	}
	wg.Wait(c.Proc())
	return runErr
}

// placer is a scheduling policy: the choice of which ready task a worker
// runs next. Graph.Run owns the worker pool, dependency release and error
// handling; a placer only stores ready tasks and picks among them.
type placer interface {
	// push makes task id ready; w is the worker whose completion released
	// it, or -1 for the graph's initially ready tasks.
	push(w, id int)
	// settle follows each batch of pushes (the seed, or one completion's
	// successors).
	settle()
	// pick removes and returns worker w's next task, how it was chosen
	// (the placement policy label) and how many of its input bytes were
	// already resident; ok is false when w finds nothing to run.
	pick(w int) (id int, policy string, saved int64, ok bool)
	// finish folds the placer's counters into st and releases its
	// instrumentation once the pool has drained.
	finish(st *Stats)
}

// stealPlacer is the locality-blind baseline: per-worker deques, initially
// round-robin partitioned, owners popping their own tails and stealing from
// siblings when dry — the same topology every app's bespoke scheduler used.
// Newly unblocked tasks land on the releasing worker's own deque, so
// successors follow their producer unless stolen.
type stealPlacer struct {
	queues  []*sched.Deque[int]
	seeded  int
	release func()
}

func newStealPlacer(c *core.Ctx, node *topo.Node, workers int) *stealPlacer {
	p := &stealPlacer{queues: make([]*sched.Deque[int], workers)}
	for i := range p.queues {
		p.queues[i] = sched.NewDeque[int](fmt.Sprintf("tg%d", i))
	}
	_, p.release = core.WatchDeques(c, node, p.queues)
	return p
}

func (p *stealPlacer) push(w, id int) {
	if w < 0 {
		// Initially ready tasks spread round-robin in program order, the
		// layout sched.Partition gives the apps' hand-wired queues.
		w = p.seeded % len(p.queues)
		p.seeded++
	}
	p.queues[w].PushTail(id)
}

func (p *stealPlacer) settle() {}

func (p *stealPlacer) pick(w int) (int, string, int64, bool) {
	if id, ok := p.queues[w].PopTail(); ok {
		return id, "queue", 0, true
	}
	if id, _, ok := sched.StealFrom(p.queues, w); ok {
		return id, "steal", 0, true
	}
	return 0, "", 0, false
}

func (p *stealPlacer) finish(st *Stats) {
	st.Pops, st.Steals = sched.TotalStats(p.queues)
	p.release()
}
