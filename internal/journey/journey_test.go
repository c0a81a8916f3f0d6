package journey

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestTraceIDDeterministic(t *testing.T) {
	a := TraceID(7, "bursty", 42)
	if b := TraceID(7, "bursty", 42); a != b {
		t.Fatalf("same triple produced %q and %q", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("trace ID %q is not 16 hex chars", a)
	}
	distinct := map[string]bool{a: true}
	for _, id := range []string{TraceID(8, "bursty", 42), TraceID(7, "steady", 42), TraceID(7, "bursty", 43)} {
		if distinct[id] {
			t.Fatalf("trace ID collision on %q", id)
		}
		distinct[id] = true
	}
}

// TestTraceIDMatchesFormula pins the fmt-free TraceID to the formula it
// implements (fnv64a of "northup/<seed>/<tenant>/<id>" as sixteen hex
// chars), over seeds at the int64 edges, empty and long tenant names, and
// IDs whose hashes have leading zero nibbles.
func TestTraceIDMatchesFormula(t *testing.T) {
	formula := func(seed int64, tenant string, id int) string {
		h := fnv.New64a()
		fmt.Fprintf(h, "northup/%d/%s/%d", seed, tenant, id)
		return fmt.Sprintf("%016x", h.Sum64())
	}
	long := strings.Repeat("tenant-", 20) // key outgrows the stack buffer
	for _, seed := range []int64{0, 1, 7, -1, -42, math.MaxInt64, math.MinInt64} {
		for _, tenant := range []string{"", "a", "bursty", "interactive", long} {
			for id := 0; id < 300; id++ {
				if got, want := TraceID(seed, tenant, id), formula(seed, tenant, id); got != want {
					t.Fatalf("TraceID(%d, %q, %d) = %s, want %s", seed, tenant, id, got, want)
				}
			}
		}
	}
	// Literal goldens, so a change to the formula itself is caught too.
	for _, g := range []struct {
		seed   int64
		tenant string
		id     int
		want   string
	}{
		{7, "bursty", 42, "a3eca1d9e657c0bc"},
		{0, "", 0, "bbb1b8d2a861d054"},
		{-1, "batch", 3, "65fc12ecd4407511"},
	} {
		if got := TraceID(g.seed, g.tenant, g.id); got != g.want {
			t.Fatalf("TraceID(%d, %q, %d) = %s, want %s", g.seed, g.tenant, g.id, got, g.want)
		}
	}
}

// span replays one charge into the journey, in the shape the runtime's
// charge point would deliver it.
func span(j *Job, cat trace.Category, track string, start, end sim.Time, bytes int64) {
	j.NoteSpan(cat, trace.Lane{Node: 0, Track: track}, "t", start, end, bytes)
}

func TestJobPartitionsLatencyExactly(t *testing.T) {
	r := NewRecorder(1, 0)
	j := r.Admit("a", 0, "gemm", 128, 100, []string{"feedcafefeedcafe"})
	j.Dispatched(250)
	span(j, trace.BufferSetup, "alloc", 250, 260, 64)
	span(j, trace.IO, "io", 260, 500, 4096)
	// Gap 500..600 is time the proc waited between operations -> blocked.
	span(j, trace.GPUCompute, "gpu", 600, 900, 16)
	j.Mark(PhaseMerge)
	span(j, trace.Transfer, "xfer", 900, 1000, 4096)
	j.Mark("")
	j.Finish(1100, false)

	if got, want := j.PhaseSum(), int64(j.Latency()); got != want {
		t.Fatalf("PhaseSum %d != Latency %d", got, want)
	}
	byName := map[string]PhaseTotal{}
	for _, pt := range j.Phases() {
		byName[pt.Phase] = pt
	}
	for phase, ns := range map[string]int64{
		PhaseAdmitWait: 0, PhaseQueueWait: 150, "alloc:node0/alloc": 10,
		"stage:node0/io": 240, PhaseBlocked: 200, "kernel:node0/gpu": 300,
		PhaseMerge: 100,
	} {
		if byName[phase].NS != ns {
			t.Fatalf("phase %q = %dns, want %d (phases %+v)", phase, byName[phase].NS, ns, j.Phases())
		}
	}
	if byName["stage:node0/io"].Bytes != 4096 || byName[PhaseMerge].Bytes != 4096 {
		t.Fatalf("staging bytes lost: %+v", j.Phases())
	}
	segs, drop := j.Segments()
	if drop != 0 {
		t.Fatalf("dropped %d segments under the default cap", drop)
	}
	var sum int64
	cursor := int64(j.Arrive)
	for _, s := range segs {
		if s.StartNS != cursor {
			t.Fatalf("segment %+v does not tile (cursor %d)", s, cursor)
		}
		cursor = s.StartNS + s.DurNS
		sum += s.DurNS
	}
	if sum != int64(j.Latency()) || cursor != int64(j.Done) {
		t.Fatalf("segments sum %d (end %d), want latency %d ending %d", sum, cursor, j.Latency(), j.Done)
	}
	if j.CategoryBusy(trace.IO) != 240 || j.CategoryBusy(trace.GPUCompute) != 300 {
		t.Fatalf("category busy: io=%d gpu=%d", j.CategoryBusy(trace.IO), j.CategoryBusy(trace.GPUCompute))
	}
}

func TestCoalesceAndSegmentCap(t *testing.T) {
	r := NewRecorder(1, 4)
	j := r.Admit("a", 1, "sort", 10, 0, nil)
	j.Dispatched(0)
	// Two contiguous same-phase charges coalesce into one segment.
	span(j, trace.IO, "io", 0, 10, 1)
	span(j, trace.IO, "io", 10, 20, 1)
	segs, _ := j.Segments()
	// admit-wait and queue-wait are zero-length at start; the io pair is one.
	if n := len(segs); n != 3 {
		t.Fatalf("got %d segments %+v, want 3 (coalesced io)", n, segs)
	}
	if segs[2].DurNS != 20 || segs[2].Bytes != 2 {
		t.Fatalf("coalesced segment %+v", segs[2])
	}
	// Alternate phases past the cap: totals stay exact, segments drop.
	for i := 0; i < 10; i++ {
		start := sim.Time(100 + 20*i)
		span(j, trace.GPUCompute, "gpu", start, start+10, 0)
	}
	j.Finish(300, false)
	if got, want := j.PhaseSum(), int64(j.Latency()); got != want {
		t.Fatalf("PhaseSum %d != Latency %d after cap", got, want)
	}
	if _, drop := j.Segments(); drop == 0 {
		t.Fatal("cap of 4 never dropped a segment")
	}
}

func TestTailRankAndShares(t *testing.T) {
	r := NewRecorder(3, 0)
	mk := func(id int, lat sim.Time) *Job {
		j := r.Admit("a", id, "gemm", 64, 0, nil)
		j.Dispatched(0)
		span(j, trace.IO, "io", 0, lat/2, 0)
		span(j, trace.GPUCompute, "gpu", lat/2, lat, 0)
		j.Finish(lat, false)
		r.Complete(j)
		return j
	}
	for i := 0; i < 100; i++ {
		mk(i, sim.Time(1000+i))
	}
	rep := Tail(r.Jobs(), 0.99)
	if len(rep.Tenants) != 1 {
		t.Fatalf("tenants = %d", len(rep.Tenants))
	}
	tt := rep.Tenants[0]
	if tt.Jobs != 100 || tt.TailJobs != 2 || tt.ThresholdNS != 1098 {
		t.Fatalf("tail stats %+v, want 100 jobs, 2 in tail, threshold 1098", tt)
	}
	if tt.Exemplar == nil || tt.Exemplar.ID != 98 {
		t.Fatalf("exemplar = %+v, want job 98 (the p99 pivot)", tt.Exemplar)
	}
	var total int64
	for _, ps := range tt.Phases {
		total += ps.NS
	}
	var want int64
	for _, j := range r.Jobs()[98:] {
		want += int64(j.Latency())
	}
	if total != want {
		t.Fatalf("tail phase total %d != tail latency sum %d", total, want)
	}
	if sp := tt.SlowestPhase(); sp != "stage:node0/io" && sp != "kernel:node0/gpu" {
		t.Fatalf("slowest phase %q", sp)
	}
	if !strings.Contains(rep.String(), "tenant a:") {
		t.Fatalf("report missing tenant section:\n%s", rep.String())
	}
}

func TestChromeEventsWaterfallRoundTrip(t *testing.T) {
	r := NewRecorder(9, 0)
	j := r.Admit("b", 2, "spmv", 2000, 50, nil)
	j.Dispatched(100)
	span(j, trace.IO, "io", 100, 400, 4096)
	j.Finish(500, false)
	r.Complete(j)

	evs := ChromeEvents(r.Jobs(), 1000)
	if len(evs) == 0 {
		t.Fatal("no chrome events")
	}
	for i, ev := range evs {
		if ev.Lane.Track != JobTrack(j.TraceID) || ev.Lane.Node != trace.NoNode {
			t.Fatalf("event lane %+v", ev.Lane)
		}
		if ev.Seq != 1000+uint64(i) {
			t.Fatalf("seq %d at %d, want base+index", ev.Seq, i)
		}
	}
	if MaxSeq(evs) != evs[len(evs)-1].Seq {
		t.Fatalf("MaxSeq = %d", MaxSeq(evs))
	}
	wf, err := WaterfallFromEvents(evs, j.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{j.TraceID, "stage:node0/io", PhaseQueueWait, "450ns"} {
		if !strings.Contains(wf, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, wf)
		}
	}
	if _, err := WaterfallFromEvents(evs, "deadbeef"); err == nil || !strings.Contains(err.Error(), j.TraceID) {
		t.Fatalf("unknown ID error should list available journeys, got %v", err)
	}
}

func TestExportDocReconciles(t *testing.T) {
	r := NewRecorder(5, 0)
	j := r.Admit("a", 0, "gemm", 64, 10, nil)
	j.Dispatched(20)
	span(j, trace.IO, "io", 20, 80, 256)
	j.Finish(100, true)
	r.Complete(j)

	doc := r.Export()
	if doc.Schema != ExportSchema || doc.Seed != 5 || len(doc.Jobs) != 1 {
		t.Fatalf("export %+v", doc)
	}
	jd := doc.Jobs[0]
	if !jd.Failed || jd.LatencyNS != 90 {
		t.Fatalf("job doc %+v", jd)
	}
	var sum int64
	for _, pt := range jd.Phases {
		sum += pt.NS
	}
	if sum != jd.LatencyNS {
		t.Fatalf("exported phase sum %d != latency %d", sum, jd.LatencyNS)
	}
}
