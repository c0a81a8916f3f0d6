package sim

import "fmt"

// fifo is a slice-backed FIFO queue. Pops advance a head index instead of
// shifting the slice, and the live tail is copied back to the front once
// the head passes half the slice, so a dequeue is amortized O(1) and a
// long-lived queue's backing array stays proportional to its peak length.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T)    { q.items = append(q.items, v) }
func (q *fifo[T]) len() int    { return len(q.items) - q.head }
func (q *fifo[T]) empty() bool { return q.head == len(q.items) }

// pop removes and returns the oldest element; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // drop the reference for the collector
	q.head++
	switch {
	case q.head == len(q.items):
		q.items, q.head = q.items[:0], 0
	case 2*q.head >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}

// live returns the queued elements, oldest first, without removing them.
func (q *fifo[T]) live() []T { return q.items[q.head:] }

// reset empties the queue, keeping its backing array.
func (q *fifo[T]) reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}

// waitList is a FIFO of blocked processes. Because the engine serializes
// execution, wait lists need no locking.
type waitList struct {
	fifo[*Proc]
}

// wakeAll wakes every waiter (in FIFO order) and empties the list.
func (w *waitList) wakeAll(e *Engine) {
	for _, p := range w.live() {
		e.wake(p)
	}
	w.reset()
}

// wakeOne wakes the first waiter, if any.
func (w *waitList) wakeOne(e *Engine) {
	if !w.empty() {
		e.wake(w.pop())
	}
}

// WaitGroup mirrors sync.WaitGroup in virtual time.
type WaitGroup struct {
	e       *Engine
	n       int
	waiters waitList
}

// NewWaitGroup returns a WaitGroup bound to e with a zero counter.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{e: e} }

// Add adds delta (which may be negative) to the counter. When the counter
// reaches zero, all processes blocked in Wait resume. The counter going
// negative is a bug and panics.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: WaitGroup counter negative")
	}
	if wg.n == 0 {
		wg.waiters.wakeAll(wg.e)
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.n == 0 {
		return
	}
	wg.waiters.push(p)
	p.block()
}

// Latch is a one-shot event: processes Wait until some process Fires it.
// Waiting on an already-fired latch returns immediately.
type Latch struct {
	e       *Engine
	fired   bool
	waiters waitList
}

// NewLatch returns an unfired latch bound to e.
func NewLatch(e *Engine) *Latch { return &Latch{e: e} }

// Fire releases all current and future waiters. Firing twice is a no-op.
func (l *Latch) Fire() {
	if l.fired {
		return
	}
	l.fired = true
	l.waiters.wakeAll(l.e)
}

// Fired reports whether the latch has been fired.
func (l *Latch) Fired() bool { return l.fired }

// Wait blocks p until the latch fires.
func (l *Latch) Wait(p *Proc) {
	if l.fired {
		return
	}
	l.waiters.push(p)
	p.block()
}

// Barrier is a cyclic barrier: Wait blocks until `parties` processes have
// arrived, then releases them all and resets for the next round — the
// synchronization shape of per-iteration stencil phases.
type Barrier struct {
	e       *Engine
	parties int
	arrived int
	waiters waitList
	rounds  int
}

// NewBarrier returns a barrier for the given number of parties (>= 1).
func NewBarrier(e *Engine, parties int) *Barrier {
	if parties < 1 {
		panic("sim: Barrier with no parties")
	}
	return &Barrier{e: e, parties: parties}
}

// Wait blocks p until all parties arrive. The last arriver does not block;
// it trips the barrier and wakes everyone.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.rounds++
		b.waiters.wakeAll(b.e)
		return
	}
	b.waiters.push(p)
	p.block()
}

// Rounds returns how many times the barrier has tripped.
func (b *Barrier) Rounds() int { return b.rounds }

// Resource is a counting semaphore with FIFO wakeup. With capacity 1 it is a
// fair mutex; device models use it to serialize (or K-way parallelize)
// requests so queueing delay emerges naturally.
//
// Release transfers ownership of the freed unit directly to the oldest
// waiter, so acquisition order equals arrival order and no process observes
// a spurious wakeup.
type Resource struct {
	e       *Engine
	cap     int
	inUse   int
	waiters waitList

	// Queueing statistics: how many acquisitions waited, and for how long
	// in total. They quantify contention in device models.
	acquires  int64
	waited    int64
	waitTotal Time
	enqueued  map[*Proc]Time
}

// NewResource returns a semaphore with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: Resource capacity %d < 1", capacity))
	}
	return &Resource{e: e, cap: capacity}
}

// Acquire blocks p until a unit of the resource is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	r.acquires++
	if r.inUse < r.cap && r.waiters.empty() {
		r.inUse++
		return
	}
	if r.enqueued == nil {
		r.enqueued = make(map[*Proc]Time)
	}
	r.enqueued[p] = r.e.now
	r.waiters.push(p)
	p.block()
	// Release reserved the unit for us before waking us; account the wait.
	r.waited++
	r.waitTotal += r.e.now - r.enqueued[p]
	delete(r.enqueued, p)
}

// QueueStats reports contention: total acquisitions, how many had to wait,
// and the cumulative waiting time.
func (r *Resource) QueueStats() (acquires, waited int64, waitTotal Time) {
	return r.acquires, r.waited, r.waitTotal
}

// TryAcquire takes a unit if one is immediately available and no earlier
// waiter is queued; it reports whether it succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && r.waiters.empty() {
		r.acquires++
		r.inUse++
		return true
	}
	return false
}

// Release returns a unit of the resource. If processes are waiting, the unit
// is handed to the oldest waiter without ever becoming free.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Resource released more than acquired")
	}
	if !r.waiters.empty() {
		r.e.wake(r.waiters.pop())
		return // ownership transferred; inUse unchanged
	}
	r.inUse--
}

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.cap }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// Use acquires the resource, sleeps for d, and releases it: the basic
// "request a server for a service time" pattern of queueing models.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Chan is a bounded FIFO channel in virtual time. A capacity of zero gives
// rendezvous (unbuffered) semantics. Values are handed to receivers in send
// order; blocked senders and receivers are served in arrival order.
type Chan struct {
	e      *Engine
	buf    fifo[interface{}]
	cap    int
	closed bool

	sendq fifo[*chanSender]
	recvq fifo[*chanReceiver]
}

type chanSender struct {
	p *Proc
	v interface{}
}

type chanReceiver struct {
	p      *Proc
	v      interface{}
	filled bool
}

// NewChan returns a channel bound to e with the given buffer capacity.
func NewChan(e *Engine, capacity int) *Chan {
	if capacity < 0 {
		panic("sim: negative Chan capacity")
	}
	return &Chan{e: e, cap: capacity}
}

// Len returns the number of buffered (sent but not yet received) values.
func (c *Chan) Len() int { return c.buf.len() }

// Closed reports whether Close has been called.
func (c *Chan) Closed() bool { return c.closed }

// Send enqueues v, blocking p while the buffer is full (or, for a rendezvous
// channel, until a receiver arrives). Sending on a closed channel panics.
func (c *Chan) Send(p *Proc, v interface{}) {
	if c.TrySend(v) {
		return
	}
	// Buffer full (or rendezvous with no receiver): queue and block. A
	// receiver (or Close) will wake us after consuming our value.
	s := &chanSender{p: p, v: v}
	c.sendq.push(s)
	p.block()
	if c.closed && s.v != nil {
		// Close woke us without a receiver taking the value.
		panic("sim: send on closed Chan")
	}
}

// TrySend enqueues v if the channel can accept it without blocking,
// reporting whether it did.
func (c *Chan) TrySend(v interface{}) bool {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	if !c.recvq.empty() {
		// Hand the value directly to the oldest waiting receiver.
		rx := c.recvq.pop()
		rx.v, rx.filled = v, true
		c.e.wake(rx.p)
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Recv dequeues a value, blocking p while the channel is empty. ok is false
// only when the channel is closed and fully drained.
func (c *Chan) Recv(p *Proc) (v interface{}, ok bool) {
	if v, ok = c.takeReady(); ok {
		return v, true
	}
	if c.closed {
		return nil, false
	}
	rx := &chanReceiver{p: p}
	c.recvq.push(rx)
	p.block()
	if rx.filled {
		return rx.v, true
	}
	// Woken by Close with nothing delivered.
	return nil, false
}

// TryRecv dequeues a value without blocking; ok is false when nothing is
// immediately available.
func (c *Chan) TryRecv() (v interface{}, ok bool) {
	return c.takeReady()
}

// takeReady removes and returns the next deliverable value: from the buffer
// first, otherwise directly from a blocked sender (rendezvous).
func (c *Chan) takeReady() (interface{}, bool) {
	if !c.buf.empty() {
		v := c.buf.pop()
		// A freed buffer slot admits the oldest blocked sender.
		if !c.sendq.empty() {
			s := c.sendq.pop()
			c.buf.push(s.v)
			s.v = nil
			c.e.wake(s.p)
		}
		return v, true
	}
	if !c.sendq.empty() { // rendezvous (cap == 0)
		s := c.sendq.pop()
		v := s.v
		s.v = nil
		c.e.wake(s.p)
		return v, true
	}
	return nil, false
}

// Close marks the channel closed, waking all blocked receivers (which see
// ok == false once the buffer drains) and panicking any blocked senders.
// Closing twice panics, as with native channels.
func (c *Chan) Close() {
	if c.closed {
		panic("sim: close of closed Chan")
	}
	c.closed = true
	for _, rx := range c.recvq.live() {
		c.e.wake(rx.p)
	}
	c.recvq.reset()
	for _, s := range c.sendq.live() {
		c.e.wake(s.p) // wakes into the "send on closed Chan" panic
	}
	c.sendq.reset()
}
