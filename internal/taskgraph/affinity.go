package taskgraph

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topo"
)

// affinityPlacer is the residency-aware policy. Each idle worker takes the
// ready task with the lowest estimated compute + bytes-to-move price. Ties
// break toward the task overlapping the worker's previous inputs (locality
// bias), then the lowest task ID, so the schedule is a pure function of
// graph order and cache state.
//
// The placer makes that choice without rescoring every ready task:
//   - A task's move price is computed when it becomes ready and cached.
//     The runtime reports every change to the residency answers prices are
//     built from (core.WatchResidency), and the next pick re-prices exactly
//     the ready readers of the extents that changed.
//   - Ready tasks sit in buckets of equal price. A bucket belongs to the
//     group of tasks sharing a compute estimate (a Kind and Cost; all tasks
//     without a profile); within a group buckets are sorted by move price,
//     so the cheapest task of a group is in its first bucket.
//   - The compute estimate is predicted once per group per pick, not once
//     per ready task.
//   - Only a task reading bytes the worker last read can win the locality
//     tie-break, so those candidates come from the dependence index. With
//     none, the lowest ID wins: the top of a tied bucket's heap.
type affinityPlacer struct {
	g       *Graph
	rt      *core.Runtime
	node    *topo.Node
	profile *sched.ProfileScheduler
	stop    func() // ends the residency watch

	// Per task, sized once: the bucket holding it while ready (else nil)
	// and its position in that bucket's heap.
	at    []*bucket
	pos   []int32
	ready int

	groups map[groupKey]*group
	active []*group  // groups holding ready tasks, in no particular order
	spare  []*bucket // emptied buckets, kept for reuse

	dirty []int32 // spans whose residency changed since the last pick
	stale []bool  // per span: already queued in dirty

	last  []*Task // per worker: the task it ran last
	depth *core.QueueDepthSlot
	picks int64
	saved int64
}

type groupKey struct {
	kind string
	cost float64
}

// group holds the ready tasks sharing one compute estimate.
type group struct {
	kind    string
	cost    float64
	buckets []*bucket // non-empty, by ascending move price
	slot    int       // index in active; -1 while the group is empty
	compute float64   // compute estimate, refreshed by each pick
}

// bucket holds a group's ready tasks of one move price, as a min-heap of
// task IDs.
type bucket struct {
	grp  *group
	move float64
	ids  []int32
}

func newAffinityPlacer(g *Graph, rt *core.Runtime, node *topo.Node, prof *sched.ProfileScheduler, workers int) *affinityPlacer {
	n := len(g.tasks)
	p := &affinityPlacer{
		g: g, rt: rt, node: node, profile: prof,
		at:     make([]*bucket, n),
		pos:    make([]int32, n),
		groups: make(map[groupKey]*group),
		stale:  make([]bool, g.spans.n),
		last:   make([]*Task, workers),
		depth:  rt.NewQueueDepthSlot(node.ID),
	}
	p.stop = rt.WatchResidency(node, p)
	return p
}

func (p *affinityPlacer) push(_, id int) {
	t := p.g.tasks[id]
	move, _ := p.price(t)
	p.insert(p.groupOf(t), move, int32(id))
	p.ready++
}

// settle publishes the number of ready tasks as this scheduler's queue
// depth; pick republishes it after every removal.
func (p *affinityPlacer) settle() { p.depth.Set(int64(p.ready)) }

func (p *affinityPlacer) pick(w int) (int, string, int64, bool) {
	p.flush()
	if p.ready == 0 {
		return 0, "", 0, false
	}
	// The lowest price is in some group's first bucket. Adding the compute
	// estimate can round distinct move prices to one price, so a group may
	// hold more than one bucket at it.
	var best float64
	for i, gr := range p.active {
		gr.compute = p.compute(gr)
		if s := gr.compute + gr.buckets[0].move; i == 0 || s < best {
			best = s
		}
	}
	win := p.localityWinner(w, best)
	if win < 0 {
		for _, gr := range p.active {
			for _, b := range gr.buckets {
				if gr.compute+b.move != best {
					break
				}
				if win < 0 || b.ids[0] < win {
					win = b.ids[0]
				}
			}
		}
	}
	t := p.g.tasks[win]
	_, saved := p.price(t)
	p.remove(win)
	p.ready--
	p.settle()
	p.picks++
	p.saved += saved
	p.last[w] = t
	return int(win), "affinity", saved, true
}

func (p *affinityPlacer) finish(st *Stats) {
	st.AffinityPicks, st.SavedBytes = p.picks, p.saved
	p.depth.Close()
	p.stop()
}

// price returns t's move price, the estimated time to fetch the inputs not
// yet staged, and how many of its input bytes are staged. Extents already
// living at the staging level are free and not counted; extents of
// higher-level sources staged (or in flight) in the node's cache count as
// resident.
func (p *affinityPlacer) price(t *Task) (move float64, resident int64) {
	for _, ex := range t.Reads {
		if ex.Buf == nil || ex.Len <= 0 || ex.Buf.Node() == p.node {
			continue
		}
		r := p.rt.CacheResidentBytes(p.node, ex.Buf, ex.Off, ex.Len)
		resident += r
		move += fetchSeconds(ex.Buf, p.node, ex.Len-r)
	}
	return move, resident
}

// compute returns the group's predicted compute seconds (0 without a
// profile, or before the Kind has enough samples).
func (p *affinityPlacer) compute(gr *group) float64 {
	if p.profile == nil {
		return 0
	}
	if pt, ok := p.profile.Predict(gr.kind, gr.cost); ok {
		return pt.Seconds()
	}
	return 0
}

// localityWinner returns the ready task at price best sharing the most
// bytes with worker w's last reads (the lowest ID among equals), or -1 when
// none shares any.
func (p *affinityPlacer) localityWinner(w int, best float64) int32 {
	last := p.last[w]
	if last == nil {
		return -1
	}
	win, most := int32(-1), int64(0)
	for _, lx := range last.Reads {
		if lx.Buf == nil {
			continue
		}
		bi := p.g.bufs[lx.Buf.ID()]
		if bi == nil {
			continue
		}
		for _, si := range p.g.window(bi, lx.Off, lx.Len) {
			sp := p.g.spans.at(si)
			if min(sp.off+sp.len, lx.Off+lx.Len) <= max(sp.off, lx.Off) {
				continue // no shared bytes
			}
			for l := sp.readers; l >= 0; {
				lk := p.g.links.at(l)
				l = lk.next
				if b := p.at[lk.task]; b == nil || b.grp.compute+b.move != best {
					continue
				}
				if n := sharedBytes(p.g.tasks[lk.task], last); n > most || n == most && lk.task < win {
					win, most = lk.task, n
				}
			}
		}
	}
	return win
}

// sharedBytes sums the pairwise overlap of t's reads with last's reads.
func sharedBytes(t, last *Task) int64 {
	var n int64
	for _, ex := range t.Reads {
		for _, lx := range last.Reads {
			n += overlapBytes(ex, lx)
		}
	}
	return n
}

// ExtentChanged queues the span's readers for re-pricing at the next pick
// (core.ResidencyWatcher).
func (p *affinityPlacer) ExtentChanged(src, off, n int64) {
	if si := p.g.lookup(src, off, n); si >= 0 {
		p.markStale(si)
	}
}

// BufferReleased queues the readers of every span of src for re-pricing
// (core.ResidencyWatcher).
func (p *affinityPlacer) BufferReleased(src int64) {
	if bi := p.g.bufs[src]; bi != nil {
		for _, si := range bi.spans {
			p.markStale(si)
		}
	}
}

func (p *affinityPlacer) markStale(si int32) {
	if !p.stale[si] && p.g.spans.at(si).readers >= 0 {
		p.stale[si] = true
		p.dirty = append(p.dirty, si)
	}
}

// flush re-prices the ready readers of every span queued since the last
// pick.
func (p *affinityPlacer) flush() {
	for _, si := range p.dirty {
		p.stale[si] = false
		for l := p.g.spans.at(si).readers; l >= 0; {
			lk := p.g.links.at(l)
			l = lk.next
			b := p.at[lk.task]
			if b == nil {
				continue
			}
			if move, _ := p.price(p.g.tasks[lk.task]); move != b.move {
				gr := b.grp
				p.remove(lk.task)
				p.insert(gr, move, lk.task)
			}
		}
	}
	p.dirty = p.dirty[:0]
}

// groupOf returns the group of tasks sharing t's compute estimate: its Kind
// and Cost, or every task when there is no profile and so no estimate.
func (p *affinityPlacer) groupOf(t *Task) *group {
	var key groupKey
	if p.profile != nil {
		key = groupKey{t.Kind, t.Cost}
	}
	gr := p.groups[key]
	if gr == nil {
		gr = &group{kind: key.kind, cost: key.cost, slot: -1}
		p.groups[key] = gr
	}
	return gr
}

// insert adds ready task id to gr's bucket for move, creating it if needed.
func (p *affinityPlacer) insert(gr *group, move float64, id int32) {
	bs := gr.buckets
	i := sort.Search(len(bs), func(i int) bool { return bs[i].move >= move })
	var b *bucket
	if i < len(bs) && bs[i].move == move {
		b = bs[i]
	} else {
		if n := len(p.spare); n > 0 {
			b = p.spare[n-1]
			p.spare = p.spare[:n-1]
			b.grp, b.move = gr, move
		} else {
			b = &bucket{grp: gr, move: move}
		}
		gr.buckets = append(gr.buckets, nil)
		copy(gr.buckets[i+1:], gr.buckets[i:])
		gr.buckets[i] = b
		if gr.slot < 0 {
			gr.slot = len(p.active)
			p.active = append(p.active, gr)
		}
	}
	p.at[id] = b
	b.ids = append(b.ids, id)
	p.up(b.ids, len(b.ids)-1)
}

// remove takes ready task id out of its bucket, dropping the bucket (and
// deactivating its group) once empty.
func (p *affinityPlacer) remove(id int32) {
	b := p.at[id]
	p.at[id] = nil
	h := b.ids
	i, n := int(p.pos[id]), len(h)-1
	if i != n {
		h[i] = h[n]
		p.pos[h[i]] = int32(i)
		if !p.down(h[:n], i) {
			p.up(h[:n], i)
		}
	}
	b.ids = h[:n]
	if n > 0 {
		return
	}
	gr := b.grp
	j := sort.Search(len(gr.buckets), func(j int) bool { return gr.buckets[j].move >= b.move })
	gr.buckets = append(gr.buckets[:j], gr.buckets[j+1:]...)
	p.spare = append(p.spare, b)
	if len(gr.buckets) == 0 {
		end := p.active[len(p.active)-1]
		p.active[gr.slot], end.slot = end, gr.slot
		p.active = p.active[:len(p.active)-1]
		gr.slot = -1
	}
}

// up and down restore the heap order of h around position i, keeping pos
// current; down reports whether the element moved.
func (p *affinityPlacer) up(h []int32, i int) {
	id := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] < id {
			break
		}
		h[i] = h[parent]
		p.pos[h[i]] = int32(i)
		i = parent
	}
	h[i] = id
	p.pos[id] = int32(i)
}

func (p *affinityPlacer) down(h []int32, i int) bool {
	id, start := h[i], i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r] < h[c] {
			c = r
		}
		if h[c] > id {
			break
		}
		h[i] = h[c]
		p.pos[h[i]] = int32(i)
		i = c
	}
	h[i] = id
	p.pos[id] = int32(i)
	return i > start
}

// fetchSeconds estimates the time to move n bytes from src's node into the
// staging node: bytes over the bottleneck of the source device's read
// bandwidth and the destination memory's write bandwidth. A coarse
// first-order price — the scorer only needs candidate ranking, not exact
// latency.
func fetchSeconds(src *core.Buffer, at *topo.Node, n int64) float64 {
	if n <= 0 {
		return 0
	}
	var bw float64
	sn := src.Node()
	switch {
	case sn.Store != nil:
		bw = sn.Store.Device().Profile().ReadBW
	case sn.Mem != nil:
		bw = sn.Mem.Profile().ReadBW
	}
	if at != nil && at.Mem != nil {
		if w := at.Mem.Profile().WriteBW; w > 0 && (bw <= 0 || w < bw) {
			bw = w
		}
	}
	if bw <= 0 {
		return 0
	}
	return float64(n) / bw
}
