// Package sched provides the task-queue machinery of Northup's runtime:
// per-node work queues that track the progress of recursive tasks (paper
// §III-B, Listing 1) and work-stealing deques used for dynamic load
// balancing between CPU threads and GPU workgroups at a leaf (§V-E).
//
// The paper implements stealing with HSA platform-scope atomics; here the
// discrete-event engine serializes execution, so the deque needs no atomics
// — what is preserved is the scheduling behaviour: owners pop from the tail
// of their own queue while thieves steal from the head of a victim's queue,
// and every task is executed exactly once.
package sched

import "fmt"

// Deque is a double-ended work queue. The owner pushes and pops at the
// tail; thieves steal from the head. It grows automatically.
type Deque[T any] struct {
	name   string
	buf    []T
	head   int // index of the oldest element
	tail   int // index one past the newest element
	n      int
	steals int64
	pops   int64

	// OnPush, OnPop and OnSteal, when set, observe every PushTail and every
	// successful PopTail and StealHead — the hooks tracing and metrics use
	// to timestamp queue activity and maintain live depth gauges. Nil (the
	// default) costs one branch.
	//
	// Contract: each hook fires after the deque's own state is updated, so
	// Len() observed inside a hook reflects the operation. Hooks belong to
	// one deque and one scheduler; when several concurrent schedulers share
	// a node-level aggregate (a depth gauge), each must publish through its
	// own additive slot (core.Runtime.NewQueueDepthSlot) rather than writing
	// an absolute total, or concurrent jobs clobber each other's value.
	// Leaf schedulers install the standard hooks with core.WatchDeques.
	OnPush  func()
	OnPop   func()
	OnSteal func()
}

// NewDeque returns an empty deque with the given name (used in stats and
// queue monitors).
func NewDeque[T any](name string) *Deque[T] {
	return &Deque[T]{name: name, buf: make([]T, 8)}
}

// Name returns the deque's name.
func (d *Deque[T]) Name() string { return d.name }

// Len returns the number of queued tasks.
func (d *Deque[T]) Len() int { return d.n }

// Empty reports whether the deque holds no tasks.
func (d *Deque[T]) Empty() bool { return d.n == 0 }

// Snapshot returns the queued tasks oldest-first without removing them.
// Observability callers use it to record what a newly admitted task is
// queued behind (the serve journey layer's causal queue-wait edges).
func (d *Deque[T]) Snapshot() []T {
	if d.n == 0 {
		return nil
	}
	out := make([]T, d.n)
	for i := 0; i < d.n; i++ {
		out[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	return out
}

func (d *Deque[T]) grow() {
	bigger := make([]T, len(d.buf)*2)
	for i := 0; i < d.n; i++ {
		bigger[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = bigger
	d.head = 0
	d.tail = d.n
}

// PushTail appends a task at the owner's end.
func (d *Deque[T]) PushTail(t T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[d.tail] = t
	d.tail = (d.tail + 1) % len(d.buf)
	d.n++
	if d.OnPush != nil {
		d.OnPush()
	}
}

// PopTail removes the newest task; the owner's fast path.
func (d *Deque[T]) PopTail() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	d.tail = (d.tail - 1 + len(d.buf)) % len(d.buf)
	t := d.buf[d.tail]
	d.buf[d.tail] = zero
	d.n--
	d.pops++
	if d.OnPop != nil {
		d.OnPop()
	}
	return t, true
}

// PeekHead returns the oldest task without removing it — what an
// admission-control dispatcher needs to test a queue's head against a
// quota before committing to take it.
func (d *Deque[T]) PeekHead() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	return d.buf[d.head], true
}

// StealHead removes the oldest task; the thief's path.
func (d *Deque[T]) StealHead() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	t := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	d.steals++
	if d.OnSteal != nil {
		d.OnSteal()
	}
	return t, true
}

// Stats returns how many tasks left through the owner path (pops) and the
// thief path (steals).
func (d *Deque[T]) Stats() (pops, steals int64) { return d.pops, d.steals }

// Monitor is the node-level view of a queue: enough to inspect subtree load
// without knowing the task type, as the paper's load-balancing discussion
// requires ("examining the status of a subsystem... by checking the queue").
type Monitor interface {
	Name() string
	Len() int
}

var _ Monitor = (*Deque[int])(nil)

// StealFrom attempts to steal one task for owner idx from the other queues,
// scanning round-robin starting after idx. It returns the task, the victim
// index, and whether anything was found.
func StealFrom[T any](queues []*Deque[T], idx int) (T, int, bool) {
	var zero T
	n := len(queues)
	for k := 1; k < n; k++ {
		v := (idx + k) % n
		if t, ok := queues[v].StealHead(); ok {
			return t, v, true
		}
	}
	return zero, -1, false
}

// TotalStats sums Stats over the queues: how many tasks left through the
// owner path and the thief path in total.
func TotalStats[T any](queues []*Deque[T]) (pops, steals int64) {
	for _, q := range queues {
		p, s := q.Stats()
		pops += p
		steals += s
	}
	return pops, steals
}

// TotalLen sums the lengths of the queues.
func TotalLen[T any](queues []*Deque[T]) int {
	total := 0
	for _, q := range queues {
		total += q.Len()
	}
	return total
}

// Partition distributes items round-robin over nq new deques, the layout the
// paper uses to assign rows of blocks to queues (§V-E, Figure 10).
func Partition[T any](items []T, nq int, namePrefix string) []*Deque[T] {
	if nq < 1 {
		panic(fmt.Sprintf("sched: Partition into %d queues", nq))
	}
	queues := make([]*Deque[T], nq)
	for i := range queues {
		queues[i] = NewDeque[T](fmt.Sprintf("%s%d", namePrefix, i))
	}
	for i, it := range items {
		queues[i%nq].PushTail(it)
	}
	return queues
}
