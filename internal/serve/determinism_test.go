package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/journey"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/sim"
	"repro/internal/trace"
)

// detScenario is the determinism suite's 2-tenant workload: every job kind
// appears, both tenants stop on MaxJobs so runs are finite without a
// duration horizon.
func detScenario(seed int64) *Scenario {
	scn := &Scenario{
		Name:    "det",
		Seed:    seed,
		Workers: 2,
		Topology: TopoSpec{
			Preset:     "apu-ssd",
			StorageMiB: 256,
			DRAMMiB:    64,
		},
		Tenants: []Tenant{
			{Name: "a", Rate: 200, QuotaMiB: 16, MaxJobs: 6, Mix: []MixEntry{
				{Workload: WorkloadGEMM, N: 128},
				{Workload: WorkloadSort, N: 5000},
			}},
			{Name: "b", Rate: 100, Weight: 2, QuotaMiB: 8, MaxJobs: 5, Mix: []MixEntry{
				{Workload: WorkloadSpMV, N: 2000},
				{Workload: WorkloadHotSpot, N: 32, Iters: 2},
			}},
		},
	}
	scn.applyDefaults()
	return scn
}

// detRun executes a scenario and returns every observable surface: report
// JSON, per-tenant metrics JSON, merged metrics JSON and job records.
func detRun(t *testing.T, scn *Scenario, phantom bool) (report, tenantA, merged []byte, recs []JobRecord) {
	t.Helper()
	e, err := New(scn, RunOptions{Phantom: phantom})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var repBuf, aBuf, mBuf bytes.Buffer
	if err := rep.WriteJSON(&repBuf); err != nil {
		t.Fatal(err)
	}
	if err := e.TenantRegistry("a").WriteJSON(&aBuf, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.MergedRegistry().WriteJSON(&mBuf, nil); err != nil {
		t.Fatal(err)
	}
	return repBuf.Bytes(), aBuf.Bytes(), mBuf.Bytes(), e.Records()
}

// TestSameSeedByteIdentical is the DSL's core determinism promise as a
// testing/quick property: for any seed, running the same scenario twice
// produces byte-identical per-tenant metrics JSON, report JSON and job
// records.
func TestSameSeedByteIdentical(t *testing.T) {
	prop := func(seed int16) bool {
		scn := detScenario(int64(seed))
		rep1, ten1, mer1, recs1 := detRun(t, scn, true)
		rep2, ten2, mer2, recs2 := detRun(t, scn, true)
		return bytes.Equal(rep1, rep2) &&
			bytes.Equal(ten1, ten2) &&
			bytes.Equal(mer1, mer2) &&
			reflect.DeepEqual(recs1, recs2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestPhantomMatchesFunctionalTiming checks serve inherits the runtime's
// phantom guarantee: a timing-only run and a functional run of the same
// scenario+seed agree on every job's arrival, start and completion time —
// only result hashes differ.
func TestPhantomMatchesFunctionalTiming(t *testing.T) {
	scn := detScenario(11)
	_, _, _, phRecs := detRun(t, scn, true)
	_, _, _, fnRecs := detRun(t, scn, false)
	if len(phRecs) != len(fnRecs) {
		t.Fatalf("record counts differ: phantom %d, functional %d", len(phRecs), len(fnRecs))
	}
	for i := range phRecs {
		p, f := phRecs[i], fnRecs[i]
		p.Hash, f.Hash = 0, 0
		if !reflect.DeepEqual(p, f) {
			t.Fatalf("record %d diverges:\nphantom    %+v\nfunctional %+v", i, p, f)
		}
	}
}

// TestFunctionalHashesDeterministic pins the bit-exactness of functional
// results: same scenario+seed reproduces identical per-job output hashes.
func TestFunctionalHashesDeterministic(t *testing.T) {
	scn := detScenario(3)
	_, _, _, r1 := detRun(t, scn, false)
	_, _, _, r2 := detRun(t, scn, false)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("functional records diverge:\n%+v\n%+v", r1, r2)
	}
	hashes := 0
	for _, r := range r1 {
		if r.Hash != 0 {
			hashes++
		}
	}
	if hashes == 0 {
		t.Fatal("no functional job produced a result hash")
	}
}

// TestMergedMetricsOrderIndependent holds serve's multi-queue metric
// merging to the same law as Cluster.MergedMetrics: obs merge is
// associative and commutative, so merging the runtime registry and the
// tenant registries in any order yields identical output.
func TestMergedMetricsOrderIndependent(t *testing.T) {
	scn := detScenario(21)
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Forward order: runtime registry, then tenants a, b.
	forward := e.MergedRegistry()
	// Reverse order: tenant b, tenant a, runtime registry last.
	reverse := obs.NewRegistry()
	reverse.Merge(e.TenantRegistry("b"))
	reverse.Merge(e.TenantRegistry("a"))
	reverse.Merge(e.Runtime().Metrics())
	var fw, rv bytes.Buffer
	if err := forward.WritePrometheus(&fw); err != nil {
		t.Fatal(err)
	}
	if err := reverse.WritePrometheus(&rv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fw.Bytes(), rv.Bytes()) {
		t.Fatalf("merge order changed the merged registry:\n--- forward ---\n%s\n--- reverse ---\n%s", fw.String(), rv.String())
	}
}

// detOpsScenario extends the determinism workload with the ops plane: a
// 1ns SLO makes every completion of tenant a a violation, so the burn-rate
// rule is guaranteed to fire, and wide rule windows clip to the run start.
func detOpsScenario(seed int64) *Scenario {
	scn := detScenario(seed)
	scn.Name = "det-ops"
	scn.Tenants[0].SLO = 1
	scn.Ops = OpsSpec{Step: 10 * sim.Millisecond, Window: 50 * sim.Millisecond, TopK: 2}
	scn.Alerts = []AlertRule{{
		Name:       "a-burn",
		Tenant:     "a",
		Metric:     MetricSLOBurn,
		Threshold:  10,
		FastWindow: sim.Second,
		SlowWindow: 2 * sim.Second,
		Severity:   "page",
	}}
	scn.applyDefaults()
	return scn
}

// detOpsRun executes an ops-enabled scenario flat out and returns the
// engine plus its alert timeline and window series as JSON.
func detOpsRun(t *testing.T, scn *Scenario) (*Engine, []byte, []byte) {
	t.Helper()
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	alerts, err := json.Marshal(e.AlertEvents())
	if err != nil {
		t.Fatal(err)
	}
	windows, err := json.Marshal(e.WindowSeries())
	if err != nil {
		t.Fatal(err)
	}
	return e, alerts, windows
}

// TestOpsOutputsByteIdentical extends the determinism promise to the ops
// plane: same scenario and seed reproduce the alert timeline and every
// windowed series byte for byte — and the timeline is not trivially empty.
func TestOpsOutputsByteIdentical(t *testing.T) {
	scn := detOpsScenario(17)
	e1, alerts1, windows1 := detOpsRun(t, scn)
	_, alerts2, windows2 := detOpsRun(t, scn)
	if !bytes.Equal(alerts1, alerts2) {
		t.Fatalf("alert timelines diverge:\n%s\n%s", alerts1, alerts2)
	}
	if !bytes.Equal(windows1, windows2) {
		t.Fatalf("window series diverge:\n%s\n%s", windows1, windows2)
	}
	evs := e1.AlertEvents()
	if len(evs) == 0 {
		t.Fatal("burn rule never fired: the scenario no longer exercises the timeline")
	}
	if evs[0].State != ops.StateFiring || evs[0].Subject != "a" {
		t.Fatalf("first transition = %+v, want tenant a firing", evs[0])
	}
}

// TestOpsAttributionReconciles holds a firing alert's attribution to the
// trace layer's own numbers: recomputing the top-K query over the recorded
// events for the same burn window must reproduce it bit for bit.
func TestOpsAttributionReconciles(t *testing.T) {
	scn := detOpsScenario(29)
	e, _, _ := detOpsRun(t, scn)
	var fired *ops.AlertEvent
	for i := range e.AlertEvents() {
		ev := &e.AlertEvents()[i]
		if ev.State == ops.StateFiring {
			fired = ev
			break
		}
	}
	if fired == nil {
		t.Fatal("no firing transition in the timeline")
	}
	if fired.Attribution == nil {
		t.Fatal("firing event has no attribution")
	}
	end := sim.Time(fired.TNS)
	start := end - scn.Alerts[0].FastWindow
	if start < 0 {
		start = 0
	}
	// The hook ran at the fire instant, when the recorder held only the
	// activity already finished: spans land in the ring at their completion
	// time. Reconstruct that prefix of the final stream before recomputing.
	var visible []trace.Event
	for _, ev := range e.TraceEvents() {
		if ev.End() <= end {
			visible = append(visible, ev)
		}
	}
	want := ops.Attribute(visible, start, end, scn.Ops.TopK)
	if !reflect.DeepEqual(fired.Attribution, want) {
		t.Fatalf("attribution does not reconcile with trace.Summarize:\ngot  %+v\nwant %+v", fired.Attribution, want)
	}
	if fired.Attribution.Events == 0 || len(fired.Attribution.Lanes) == 0 {
		t.Fatalf("attribution is empty: %+v", fired.Attribution)
	}
}

// TestPacedRunMatchesFlatRun checks that slicing the simulation through
// Live.RunPaced changes nothing: report, timeline and series match the
// flat Engine.Run byte for byte.
func TestPacedRunMatchesFlatRun(t *testing.T) {
	scn := detOpsScenario(5)
	_, flatAlerts, flatWindows := detOpsRun(t, scn)
	flatRep, _, _, _ := detRun(t, scn, true)

	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLive(e)
	rep, err := l.RunPaced(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var repBuf bytes.Buffer
	if err := rep.WriteJSON(&repBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repBuf.Bytes(), flatRep) {
		t.Fatalf("paced report diverges from flat run:\n%s\n%s", repBuf.Bytes(), flatRep)
	}
	alerts, err := json.Marshal(e.AlertEvents())
	if err != nil {
		t.Fatal(err)
	}
	windows, err := json.Marshal(e.WindowSeries())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(alerts, flatAlerts) || !bytes.Equal(windows, flatWindows) {
		t.Fatal("paced ops outputs diverge from the flat run")
	}
}

// adminGet runs one in-process request against the live admin plane.
func adminGet(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.Bytes()
}

// TestAdminEndpointsDeterministic runs the admin plane twice over the same
// scenario and asserts every endpoint's terminal snapshot is
// byte-identical; it also spot-checks the documents' content.
func TestAdminEndpointsDeterministic(t *testing.T) {
	scn := detOpsScenario(13)
	paths := []string{"/healthz", "/tenants", "/alerts", "/metrics"}
	snap := func() map[string][]byte {
		e, err := New(scn, RunOptions{Phantom: true})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLive(e)
		if _, err := l.RunPaced(0, 0); err != nil {
			t.Fatal(err)
		}
		h := l.Handler()
		out := map[string][]byte{}
		for _, p := range paths {
			out[p] = adminGet(t, h, p)
		}
		return out
	}
	a, b := snap(), snap()
	for _, p := range paths {
		if !bytes.Equal(a[p], b[p]) {
			t.Errorf("%s snapshots diverge:\n%s\n%s", p, a[p], b[p])
		}
	}

	var h Health
	if err := json.Unmarshal(a["/healthz"], &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "done" || h.NowNS <= 0 {
		t.Fatalf("healthz = %+v, want done with a positive clock", h)
	}
	var td TenantsDoc
	if err := json.Unmarshal(a["/tenants"], &td); err != nil {
		t.Fatal(err)
	}
	if len(td.Tenants) != 2 || td.Tenants[0].Name != "a" {
		t.Fatalf("tenants doc = %+v", td)
	}
	if td.Tenants[0].Completed == 0 || td.Tenants[0].SLOViolations == 0 {
		t.Fatalf("tenant a health = %+v, want completions and violations", td.Tenants[0])
	}
	var ad AlertsDoc
	if err := json.Unmarshal(a["/alerts"], &ad); err != nil {
		t.Fatal(err)
	}
	if len(ad.Events) == 0 {
		t.Fatal("alerts doc has no transitions")
	}
}

// TestEngineStatsInReport checks the report's engine block: the
// schedule-determined fields are always present, and the wall-clock fields
// appear only when requested so deterministic outputs stay deterministic.
func TestEngineStatsInReport(t *testing.T) {
	scn := detScenario(9)
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine == nil || rep.Engine.Events <= 0 {
		t.Fatalf("report engine stats = %+v, want event counts", rep.Engine)
	}
	if rep.Engine.EventsPerSec != 0 || rep.Engine.WallMS != 0 {
		t.Fatalf("wall-clock stats leaked into a deterministic report: %+v", rep.Engine)
	}

	e2, err := New(scn, RunOptions{Phantom: true, WallStats: true})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Engine.Events != rep.Engine.Events || rep2.Engine.Procs != rep.Engine.Procs {
		t.Fatalf("schedule-determined stats changed with WallStats: %+v vs %+v", rep2.Engine, rep.Engine)
	}
	if rep2.Engine.EventsPerSec <= 0 || rep2.Engine.WallMS <= 0 {
		t.Fatalf("WallStats run missing wall-clock stats: %+v", rep2.Engine)
	}
}

// detJourneyScenario enables journeys at full sampling on the determinism
// workload, leaving everything else (name included) untouched so outputs
// can be byte-compared against the plain scenario.
func detJourneyScenario(seed int64) *Scenario {
	scn := detScenario(seed)
	scn.Journeys = JourneySpec{Enabled: true}
	scn.applyDefaults()
	return scn
}

// TestJourneysPreserveSchedule is the journey layer's core invariant: a run
// with journeys on executes the byte-identical job schedule — and report —
// of a run with them off. Journeys draw no random numbers and charge no
// virtual time, so the only outputs allowed to differ are the journey
// artifacts themselves (and the reject counters they gate).
func TestJourneysPreserveSchedule(t *testing.T) {
	repOff, _, _, recsOff := detRun(t, detScenario(31), true)
	repOn, _, _, recsOn := detRun(t, detJourneyScenario(31), true)
	if !bytes.Equal(repOff, repOn) {
		t.Fatalf("journeys changed the report:\n--- off ---\n%s\n--- on ---\n%s", repOff, repOn)
	}
	if !reflect.DeepEqual(recsOff, recsOn) {
		t.Fatal("journeys changed the job records")
	}
}

// TestJourneyPhaseSumsReconcile holds every journey to the accounting
// contract: phase totals partition [arrive, done) exactly (PhaseSum ==
// Latency bit-for-bit), journeys match the job records one-to-one at
// sample 1.0, and the per-category busy totals across all journeys
// reproduce the runtime's Breakdown — both sides are fed by the same
// charge point, so any drift is a bug.
func TestJourneyPhaseSumsReconcile(t *testing.T) {
	scn := detJourneyScenario(41)
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	jobs := e.Journeys().Jobs()
	recs := e.Records()
	if len(jobs) == 0 || len(jobs) != len(recs) {
		t.Fatalf("journeys %d, records %d: sample 1.0 must cover every job", len(jobs), len(recs))
	}
	for i, j := range jobs {
		if got, want := j.PhaseSum(), int64(j.Latency()); got != want {
			t.Fatalf("job %s/%d: PhaseSum %d != Latency %d", j.Tenant, j.ID, got, want)
		}
		r := recs[i]
		if j.Tenant != r.Tenant || j.ID != r.ID ||
			int64(j.Arrive) != r.ArriveNS || int64(j.Start) != r.StartNS || int64(j.Done) != r.DoneNS {
			t.Fatalf("journey %d diverges from its record:\njourney %+v\nrecord  %+v", i, j, r)
		}
		segs, _ := j.Segments()
		var segSum int64
		for _, s := range segs {
			segSum += s.DurNS
		}
		if segSum != int64(j.Latency()) {
			t.Fatalf("job %s/%d: segments sum %d != latency %d", j.Tenant, j.ID, segSum, j.Latency())
		}
	}
	bd := e.Runtime().Breakdown()
	for _, cat := range trace.Categories {
		var sum sim.Time
		for _, j := range jobs {
			sum += j.CategoryBusy(cat)
		}
		if sum != bd.Busy(cat) {
			t.Fatalf("category %v: journeys sum %d, runtime breakdown %d", cat, sum, bd.Busy(cat))
		}
	}
}

// TestJourneyAnalyzerByteIdentical extends the determinism promise to every
// journey artifact: the tail report, the journey export, the Chrome trace
// (with per-job lanes) and a waterfall re-rendered from the parsed trace
// are all byte-identical across runs of the same scenario and seed.
func TestJourneyAnalyzerByteIdentical(t *testing.T) {
	run := func() (tail, export, chrome, wf []byte) {
		e, err := New(detJourneyScenario(51), RunOptions{Phantom: true, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		tail = []byte(e.TailReport(0.99).String())
		export, err = json.Marshal(e.Journeys().Export())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChromeTrace(&buf, e.TraceEvents(), trace.ChromeExportOptions{
			NodeLabel:     e.TraceNodeLabel,
			DroppedEvents: e.TraceDropped(),
		}); err != nil {
			t.Fatal(err)
		}
		chrome = buf.Bytes()
		if err := trace.ValidateChromeTrace(chrome); err != nil {
			t.Fatalf("serve trace does not validate: %v", err)
		}
		parsed, err := trace.ParseChromeTrace(chrome)
		if err != nil {
			t.Fatal(err)
		}
		id := e.Journeys().Jobs()[0].TraceID
		s, err := journey.WaterfallFromEvents(parsed.Events, id)
		if err != nil {
			t.Fatal(err)
		}
		return tail, export, chrome, []byte(s)
	}
	t1, e1, c1, w1 := run()
	t2, e2, c2, w2 := run()
	if !bytes.Equal(t1, t2) {
		t.Fatalf("tail reports diverge:\n%s\n%s", t1, t2)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("journey exports diverge")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("chrome traces diverge")
	}
	if !bytes.Equal(w1, w2) {
		t.Fatalf("waterfalls diverge:\n%s\n%s", w1, w2)
	}
	if len(w1) == 0 || !bytes.Contains(t1, []byte("tail-latency decomposition")) {
		t.Fatalf("analyzer output is trivially empty:\n%s", t1)
	}
}

// TestJourneySamplingDeterministic checks the stride sampler: at sample 0.5
// every second admission per tenant is journeyed, the selection is
// reproducible, and — like any sampling rate — the schedule matches the
// journeys-off run exactly.
func TestJourneySamplingDeterministic(t *testing.T) {
	half := func() *Scenario {
		scn := detScenario(61)
		scn.Journeys = JourneySpec{Enabled: true, Sample: 0.5}
		scn.applyDefaults()
		return scn
	}
	e, err := New(half(), RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	jobs := e.Journeys().Jobs()
	recs := e.Records()
	if len(jobs) == 0 || len(jobs) >= len(recs) {
		t.Fatalf("sample 0.5 journeyed %d of %d jobs", len(jobs), len(recs))
	}
	for _, j := range jobs {
		if j.ID%2 != 1 {
			t.Fatalf("stride 0.5 should select odd tenant-local IDs, got %s/%d", j.Tenant, j.ID)
		}
	}
	_, _, _, base := detRun(t, detScenario(61), true)
	if !reflect.DeepEqual(recs, base) {
		t.Fatal("sampling changed the job schedule")
	}
	e2, err := New(half(), RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e2.Journeys().Jobs()) != len(jobs) {
		t.Fatalf("sampled set diverges across runs: %d vs %d", len(e2.Journeys().Jobs()), len(jobs))
	}
}

// TestJourneyBehindListsMatchDerivedIDs is the oracle for the queued-behind
// edges. At sample 1.0 every queued job already has a journey, so Behind is
// built from the queued journeys' own IDs; at 0.5 about half the queued
// jobs are unsampled and their IDs are derived afresh. Sampling does not
// change the schedule, so a job journeyed in both runs must wait behind the
// same list, and every entry must be the derived trace ID of a lower-id job
// of the same tenant.
func TestJourneyBehindListsMatchDerivedIDs(t *testing.T) {
	const seed = 71
	behind := func(sample float64) map[string][]string {
		scn := detScenario(seed)
		for i := range scn.Tenants {
			scn.Tenants[i].Rate *= 20
			scn.Tenants[i].MaxJobs *= 2
		}
		scn.Journeys = JourneySpec{Enabled: true, Sample: sample}
		scn.applyDefaults()
		e, err := New(scn, RunOptions{Phantom: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]string)
		for _, j := range e.Journeys().Jobs() {
			earlier := make(map[string]bool, j.ID)
			for id := 0; id < j.ID; id++ {
				earlier[journey.TraceID(seed, j.Tenant, id)] = true
			}
			for _, b := range j.Behind {
				if !earlier[b] {
					t.Fatalf("sample %g: job %s/%d queued behind %s, not a lower-id %s job",
						sample, j.Tenant, j.ID, b, j.Tenant)
				}
			}
			out[j.TraceID] = j.Behind
		}
		return out
	}
	full, half := behind(1.0), behind(0.5)
	queued, derived := 0, 0
	for id, h := range half {
		f, ok := full[id]
		if !ok {
			t.Fatalf("job %s journeyed at sample 0.5 but not at 1.0", id)
		}
		if !reflect.DeepEqual(f, h) {
			t.Fatalf("job %s: behind list %v at sample 1.0, %v at 0.5", id, f, h)
		}
		queued += len(h)
		for _, b := range h {
			if _, sampled := half[b]; !sampled {
				derived++
			}
		}
	}
	if queued == 0 || derived == 0 {
		t.Fatalf("scenario too light to test both paths: %d queued entries, %d derived", queued, derived)
	}
}

// TestRejectReasonsAndInstants forces all three admission-rejection causes'
// machinery through a starved tenant: the reason-labelled counter totals
// must equal the admission-reject instants in the trace stream, and both
// surfaces appear only because journeys are on.
func TestRejectReasonsAndInstants(t *testing.T) {
	scn := &Scenario{
		Name:    "rej",
		Seed:    5,
		Workers: 1,
		Topology: TopoSpec{
			Preset:     "apu-ssd",
			StorageMiB: 256,
			DRAMMiB:    64,
		},
		Tenants: []Tenant{
			{Name: "r", Rate: 5000, QuotaMiB: 1, MaxJobs: 60, MaxQueue: 2, Mix: []MixEntry{
				{Workload: WorkloadGEMM, N: 1024},
				{Workload: WorkloadHotSpot, N: 32, Iters: 2},
			}},
		},
		Journeys: JourneySpec{Enabled: true},
	}
	scn.applyDefaults()
	e, err := New(scn, RunOptions{Phantom: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var counted int64
	var promBuf bytes.Buffer
	if err := e.MergedRegistry().WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	for _, reason := range []string{rejectQuota, rejectBacklog} {
		marker := `northup_admission_reject_total{reason="` + reason + `",tenant="r"}`
		if !bytes.Contains(promBuf.Bytes(), []byte(marker)) {
			t.Fatalf("merged metrics missing %s:\n%s", marker, promBuf.String())
		}
	}
	for _, t2 := range e.tenants {
		for _, c := range t2.rejReason {
			counted += c.Value()
		}
	}
	instants := 0
	for _, ev := range e.TraceEvents() {
		if ev.Kind == trace.KindInstant && ev.Lane.Track == admissionTrack {
			instants++
		}
	}
	if counted == 0 || int64(instants) != counted {
		t.Fatalf("reject accounting: counters %d, trace instants %d", counted, instants)
	}
}

// TestFiringAlertsCarryExemplars runs the ops scenario with journeys on:
// every firing transition must carry at least one latency exemplar, and
// each exemplar's trace ID must resolve to a recorded journey.
func TestFiringAlertsCarryExemplars(t *testing.T) {
	scn := detOpsScenario(17)
	scn.Journeys = JourneySpec{Enabled: true}
	scn.applyDefaults()
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, ev := range e.AlertEvents() {
		if ev.State != ops.StateFiring {
			continue
		}
		fired++
		if len(ev.Exemplars) == 0 {
			t.Fatalf("firing event %s carries no exemplars", ev.Rule)
		}
		for _, x := range ev.Exemplars {
			j := e.Journeys().Find(x.TraceID)
			if j == nil {
				t.Fatalf("exemplar %q does not resolve to a journey", x.TraceID)
			}
			if int64(j.Latency()) != x.ValueNS {
				t.Fatalf("exemplar %q value %d != journey latency %d", x.TraceID, x.ValueNS, j.Latency())
			}
		}
	}
	if fired == 0 {
		t.Fatal("scenario fired no alerts")
	}
}
