package trace

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements the event-level half of the package: where Breakdown
// answers "how much time went where in total", the Recorder answers "what
// happened when, and on which lane". Every simulated activity — transfers,
// I/O, kernel launches, allocations, cache fills, fault retries — is a span
// with a start and duration; steals, evictions and faults are instants;
// queue depths are counter samples. The stream is what the Chrome-trace
// exporter, the per-node metrics and the critical-path walker consume, and
// it is the single observation path profile-guided scheduling feeds from.
//
// The recorder is deterministic (events carry virtual time only), bounded
// (a ring buffer of configurable capacity; the oldest events are dropped
// and counted once it fills), and costs nothing when absent: the runtime
// guards every emission behind a nil check and uses only static name
// strings, so a disabled run performs no tracing work and no allocations.

// NoNode is the Lane.Node of activities not tied to a tree node (runtime
// bookkeeping, retry backoff).
const NoNode = -1

// Standard lane tracks. A Lane is (tree node, track); these constants name
// the tracks the runtime emits on. Worker-private lanes (per-workgroup
// task execution) use the worker's process name as the track instead.
const (
	TrackXfer    = "xfer"    // memory-to-memory transfers landing on the node
	TrackIO      = "io"      // file I/O on a storage node
	TrackAlloc   = "alloc"   // buffer setup
	TrackGPU     = "gpu"     // GPU kernel execution
	TrackCPU     = "cpu"     // CPU compute
	TrackPIM     = "pim"     // processor-in-memory compute
	TrackFPGA    = "fpga"    // FPGA pipeline execution
	TrackCache   = "cache"   // staging-cache hits/misses/evictions
	TrackRuntime = "runtime" // bookkeeping and retry backoff
	TrackTask    = "task"    // application-level task spans (chunks, stages)
	TrackQueue   = "queue"   // work-queue pops/steals/depth samples
	TrackStream  = "stream"  // streamed-move sub-chunk hops and ring telemetry
)

// Lane identifies one horizontal track of the execution timeline: a tree
// node plus an activity class on it. In the Chrome export a node becomes a
// process and each of its tracks a thread, so a run renders as a Gantt
// chart with distinct lanes per memory node and processor.
type Lane struct {
	// Node is the topo tree node ID, or NoNode.
	Node int
	// Track is the activity class within the node (TrackXfer, TrackGPU,
	// ... or a worker name).
	Track string
}

// String renders the lane as "node3/gpu".
func (l Lane) String() string {
	if l.Node == NoNode {
		return l.Track
	}
	return fmt.Sprintf("node%d/%s", l.Node, l.Track)
}

// EventKind distinguishes spans, instants and counter samples.
type EventKind uint8

const (
	// KindSpan is a completed activity with a start and a duration.
	KindSpan EventKind = iota
	// KindInstant is a point event (a steal, an eviction, a fault).
	KindInstant
	// KindCounter is a sampled value (queue depth).
	KindCounter
)

// None is the category of events that do not charge busy time: structural
// task spans (which would double-count the compute and transfer spans they
// contain), instants, and counters.
const None Category = -1

// Event is one element of the trace stream.
type Event struct {
	// Kind says whether Start/Dur describe a span, an instant, or a
	// counter sample.
	Kind EventKind
	// Cat is the busy-time category a span was charged to, or None.
	Cat Category
	// Name labels the event ("move", "kernel", "steal", ...). Emitters use
	// static strings so disabled tracing allocates nothing.
	Name string
	// Lane is the timeline track the event belongs to.
	Lane Lane
	// Start is the span start, or the instant/sample timestamp.
	Start sim.Time
	// Dur is the span duration (zero for instants and counters).
	Dur sim.Time
	// Value carries the span's payload bytes, the counter's sampled value,
	// or an emitter-specific detail (queue index, task size).
	Value int64
	// Seq is the emission sequence number, the deterministic tiebreaker
	// for events sharing a timestamp.
	Seq uint64
}

// End returns Start+Dur.
func (e Event) End() sim.Time { return e.Start + e.Dur }

// DefaultMaxEvents is the ring capacity when Options leaves it zero:
// enough for the repository's demo workloads without unbounded growth.
const DefaultMaxEvents = 1 << 19

// Options configures a Recorder.
type Options struct {
	// MaxEvents bounds the ring buffer; once full, the oldest events are
	// dropped (and counted in Dropped). Zero or negative selects
	// DefaultMaxEvents.
	MaxEvents int
}

// ringBlock is the number of events per storage block of a Recorder's
// ring. Blocks are allocated on first touch and never copied, so the ring
// costs nothing until used and grows toward MaxEvents without the
// reallocate-and-copy steps of an appended slice.
const ringBlock = 4096

// Recorder accumulates the event stream of a run. It must be driven from
// the single simulation goroutine (like every other simulation structure)
// and therefore needs no locking.
type Recorder struct {
	max int
	// blocks holds ring slot i at blocks[i/ringBlock][i%ringBlock]. Slots
	// fill in index order until the ring is full, so blocks are appended
	// in order; the last one is short when max is not a block multiple.
	blocks  [][]Event
	n       int // retained events; grows to max, then stays
	head    int // slot of the oldest event (nonzero only once full)
	seq     uint64
	dropped int64
	busy    [numCategories]sim.Time
}

// NewRecorder returns an empty recorder with the given bounds. It
// allocates no ring storage; blocks arrive as events do.
func NewRecorder(o Options) *Recorder {
	max := o.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	return &Recorder{max: max}
}

// Span records a completed activity on lane covering [start, end). Spans
// with a real category also accumulate into the recorder's own per-category
// busy totals, which stay exact even when the ring drops events — that is
// what the event-vs-Breakdown equality check audits.
func (r *Recorder) Span(lane Lane, cat Category, name string, start, end sim.Time, value int64) {
	if end < start {
		panic(fmt.Sprintf("trace: span %q on %v ends (%v) before it starts (%v)", name, lane, end, start))
	}
	if cat >= 0 && cat < numCategories {
		r.busy[cat] += end - start
	}
	r.emit(Event{Kind: KindSpan, Cat: cat, Name: name, Lane: lane,
		Start: start, Dur: end - start, Value: value})
}

// Instant records a point event on lane at time t.
func (r *Recorder) Instant(lane Lane, name string, t sim.Time, value int64) {
	r.emit(Event{Kind: KindInstant, Cat: None, Name: name, Lane: lane, Start: t, Value: value})
}

// Counter records a sampled value on lane at time t.
func (r *Recorder) Counter(lane Lane, name string, t sim.Time, value int64) {
	r.emit(Event{Kind: KindCounter, Cat: None, Name: name, Lane: lane, Start: t, Value: value})
}

// emit stores the event in the ring, overwriting the oldest when full.
func (r *Recorder) emit(ev Event) {
	ev.Seq = r.seq
	r.seq++
	i := r.n
	if r.n < r.max {
		r.n++
	} else {
		i = r.head
		r.head = (r.head + 1) % r.max
		r.dropped++
	}
	b := i / ringBlock
	if b == len(r.blocks) {
		r.blocks = append(r.blocks, make([]Event, min(ringBlock, r.max-b*ringBlock)))
	}
	r.blocks[b][i%ringBlock] = ev
}

// appendSlots appends ring slots [lo, hi) to out, one block run at a time.
func (r *Recorder) appendSlots(out []Event, lo, hi int) []Event {
	for lo < hi {
		blk := r.blocks[lo/ringBlock][lo%ringBlock:]
		if len(blk) > hi-lo {
			blk = blk[:hi-lo]
		}
		out = append(out, blk...)
		lo += len(blk)
	}
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return r.n }

// Dropped returns how many events the bounded ring discarded.
func (r *Recorder) Dropped() int64 { return r.dropped }

// CategoryBusy returns the busy time accumulated by spans of the category,
// including spans the ring has since dropped.
func (r *Recorder) CategoryBusy(c Category) sim.Time {
	if c < 0 || c >= numCategories {
		return 0
	}
	return r.busy[c]
}

// Events returns the retained events in emission order (completion order
// for spans). The slice is a copy; callers may sort it freely.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	out = r.appendSlots(out, r.head, r.n)
	return r.appendSlots(out, 0, r.head)
}

// Window returns the earliest start and latest end over the retained
// events, the default analysis window of the trace tools. ok is false for
// an empty recorder.
func (r *Recorder) Window() (start, end sim.Time, ok bool) {
	if r.n == 0 {
		return 0, 0, false
	}
	first := true
	left := r.n
	for _, blk := range r.blocks {
		if len(blk) > left {
			blk = blk[:left]
		}
		left -= len(blk)
		for i := range blk {
			ev := &blk[i]
			if first || ev.Start < start {
				start = ev.Start
			}
			if first || ev.End() > end {
				end = ev.End()
			}
			first = false
		}
	}
	return start, end, true
}

// Reset clears the ring, counters and totals between measured phases. The
// allocated blocks are kept for reuse.
func (r *Recorder) Reset() {
	r.n = 0
	r.head = 0
	r.seq = 0
	r.dropped = 0
	r.busy = [numCategories]sim.Time{}
}

// ParseCategory inverts Category.String; ok is false for labels that are
// not busy-time categories ("task", "instant", ...).
func ParseCategory(s string) (Category, bool) {
	for _, c := range Categories {
		if c.String() == s {
			return c, true
		}
	}
	return None, false
}
