package taskgraph

import "sort"

// This file is the graph's dependence index. Every distinct extent a task
// declares is interned once per buffer as a span, kept in a per-buffer list
// sorted by (Off, Len), with the tasks that wrote it and the tasks that read
// it. Graph.Add finds a new task's conflicts by searching those lists
// instead of testing every earlier task, and the affinity placer uses the
// same spans to map a residency change, or a worker's last reads, to the
// tasks that read the extent.

// blockBits sizes the blocks of a blocks vector (256 elements).
const blockBits = 8

// blocks is an append-only vector stored in fixed-size blocks. Growing it
// never copies what it already holds, so a large graph's index leaves no
// growth garbage behind.
type blocks[T any] struct {
	b [][]T
	n int32
}

func (v *blocks[T]) add(x T) int32 {
	i := v.n
	if int(i>>blockBits) == len(v.b) {
		v.b = append(v.b, make([]T, 1<<blockBits))
	}
	v.b[i>>blockBits][i&(1<<blockBits-1)] = x
	v.n++
	return i
}

func (v *blocks[T]) at(i int32) *T { return &v.b[i>>blockBits][i&(1<<blockBits-1)] }

// span is one distinct extent [off, off+len) of a buffer, with the tasks
// that declared it.
type span struct {
	off, len         int64
	writers, readers int32 // heads of task lists in Graph.links; -1 when empty
}

// link is one entry of a span's task list. Lists run newest task first.
type link struct{ task, next int32 }

// bufIndex holds one buffer's spans, sorted by (off, len).
type bufIndex struct {
	spans  []int32
	maxLen int64 // longest span: bounds how far back an overlap can start
}

// window returns the range of bi.spans that can intersect [off, off+n):
// the spans starting before its end and less than maxLen before its start.
// Callers still test each span for intersection.
func (g *Graph) window(bi *bufIndex, off, n int64) []int32 {
	s := bi.spans
	hi := sort.Search(len(s), func(i int) bool { return g.spans.at(s[i]).off >= off+n })
	lo := sort.Search(hi, func(i int) bool { return g.spans.at(s[i]).off > off-bi.maxLen })
	return s[lo:hi]
}

// index records t's dependencies on earlier tasks, then t's own extents.
// The extents must be well-formed (see checkExtent).
func (g *Graph) index(t *Task) {
	if g.bufs == nil {
		g.bufs = make(map[int64]*bufIndex)
	}
	for _, r := range t.Reads {
		g.depend(t, r, false)
	}
	for _, w := range t.Writes {
		g.depend(t, w, true)
	}
	id := int32(t.id)
	for _, r := range t.Reads {
		if r.Buf != nil {
			sp := g.intern(r)
			sp.readers = g.push(sp.readers, id)
		}
	}
	for _, w := range t.Writes {
		if w.Buf != nil {
			sp := g.intern(w)
			sp.writers = g.push(sp.writers, id)
		}
	}
}

// depend makes t wait on every earlier writer of an extent intersecting e
// and, when t writes e, on every earlier reader of one too: the RAW, WAW
// and WAR rules of the pairwise conflict test, found through the index.
func (g *Graph) depend(t *Task, e Extent, write bool) {
	if e.Buf == nil {
		return
	}
	bi := g.bufs[e.Buf.ID()]
	if bi == nil {
		return
	}
	for _, si := range g.window(bi, e.Off, e.Len) {
		sp := g.spans.at(si)
		if sp.off >= e.Off+e.Len || e.Off >= sp.off+sp.len {
			continue
		}
		g.edges(t, sp.writers)
		if write {
			g.edges(t, sp.readers)
		}
	}
}

// edges adds the edge prev -> t for every task on the list, once per pair.
// Tasks are added in ID order, so prev already has the edge exactly when
// its last successor is t.
func (g *Graph) edges(t *Task, head int32) {
	for l := head; l >= 0; {
		lk := g.links.at(l)
		prev := g.tasks[lk.task]
		if n := len(prev.outs); n == 0 || prev.outs[n-1] != t.id {
			prev.outs = append(prev.outs, t.id)
			t.nblock++
		}
		l = lk.next
	}
}

// intern returns e's span, adding it to its buffer's sorted list if new.
func (g *Graph) intern(e Extent) *span {
	key := e.Buf.ID()
	bi := g.bufs[key]
	if bi == nil {
		bi = &bufIndex{}
		g.bufs[key] = bi
	}
	i, ok := g.find(bi, e.Off, e.Len)
	if ok {
		return g.spans.at(bi.spans[i])
	}
	si := g.spans.add(span{off: e.Off, len: e.Len, writers: -1, readers: -1})
	bi.spans = append(bi.spans, 0)
	copy(bi.spans[i+1:], bi.spans[i:])
	bi.spans[i] = si
	bi.maxLen = max(bi.maxLen, e.Len)
	return g.spans.at(si)
}

// find returns where the span [off, off+n) sits (or would sit) in bi's
// sorted list, and whether it is there.
func (g *Graph) find(bi *bufIndex, off, n int64) (int, bool) {
	s := bi.spans
	i := sort.Search(len(s), func(i int) bool {
		sp := g.spans.at(s[i])
		return sp.off > off || sp.off == off && sp.len >= n
	})
	if i < len(s) {
		if sp := g.spans.at(s[i]); sp.off == off && sp.len == n {
			return i, true
		}
	}
	return i, false
}

// push prepends task to the list at head and returns the new head; a task
// declaring the same extent twice is listed once.
func (g *Graph) push(head, task int32) int32 {
	if head >= 0 && g.links.at(head).task == task {
		return head
	}
	return g.links.add(link{task: task, next: head})
}

// lookup returns the ID of the span [off, off+n) of buffer src, or -1.
func (g *Graph) lookup(src, off, n int64) int32 {
	bi := g.bufs[src]
	if bi == nil {
		return -1
	}
	if i, ok := g.find(bi, off, n); ok {
		return bi.spans[i]
	}
	return -1
}
