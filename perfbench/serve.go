package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// serve-mix replays the two-tenant saturation scenario of the serve figure
// (four job kinds, 2 workers) with journeys (sample 1.0) and the ops plane
// on. Arrivals are open-loop Poisson in virtual time, so a job is timed
// from its due arrival and the generator is never late.
const (
	// serveBaseJPS is the scenario's aggregate base rate (40 + 100 jobs/s).
	serveBaseJPS = 140
	// serveBatchArrivals is the batch tenant's (the slower one's) arrival
	// count per run, so every tenant's p99 has at least ten samples beyond
	// it. The interactive tenant gets 2.5 times as many, in proportion to
	// its rate.
	serveBatchArrivals = 1100
	// serveMinSamples is the sample count below which a p99 would have
	// fewer than ten samples beyond it.
	serveMinSamples = 1000
)

// serveMuls are the fixed rate multipliers of the timed section: 2x base
// load, 4x (just past the batch tenant's SLO) and 8x (overload).
var serveMuls = []float64{2, 4, 8}

// serveScenario is the scenario at rate multiplier mul, stopping each
// tenant after a fixed number of arrivals so that every seed offers the
// same amount of work. It also returns the nominal horizon, the batch
// arrivals over the batch rate. The arrival window stays open half as long
// again, so the count, not the window, ends the stream.
func serveScenario(mul float64, seed int64, batchArrivals int) (*serve.Scenario, sim.Time) {
	horizon := sim.Time(float64(batchArrivals) / (40 * mul) * float64(time.Second))
	return &serve.Scenario{
		Name:     fmt.Sprintf("saturation-%gx", mul),
		Seed:     seed,
		Duration: horizon * 3 / 2,
		Workers:  2,
		Topology: serve.TopoSpec{Preset: "apu-ssd", StorageMiB: 512, DRAMMiB: 64},
		Tenants: []serve.Tenant{
			{
				Name: "batch", Rate: 40 * mul, Weight: 1, QuotaMiB: 24, MaxJobs: batchArrivals,
				SLO: sim.Time(40 * time.Millisecond),
				Mix: []serve.MixEntry{
					{Workload: serve.WorkloadGEMM, N: 512},
					{Workload: serve.WorkloadSort, N: 200_000},
				},
			},
			{
				Name: "interactive", Rate: 100 * mul, Weight: 3, QuotaMiB: 8, MaxJobs: batchArrivals * 5 / 2,
				SLO: sim.Time(10 * time.Millisecond),
				Mix: []serve.MixEntry{
					{Workload: serve.WorkloadSpMV, N: 16384},
					{Workload: serve.WorkloadHotSpot, N: 64, Iters: 4},
				},
			},
		},
		Ops:      serve.OpsSpec{Enabled: true},
		Journeys: serve.JourneySpec{Enabled: true, Sample: 1.0},
	}, horizon
}

// serveRun is one scenario run.
type serveRun struct {
	mul     float64
	horizon sim.Time // nominal arrival horizon
	scn     *serve.Scenario
	// eng is dropped once the run is done unless keep is set (the traced
	// run reads its registries and journeys), so only one engine's state
	// is live at a time, as when a user serves one scenario.
	eng  *serve.Engine
	keep bool
	rep  *serve.Report
	recs []serve.JobRecord
	tail map[string]*tenantLatency
}

// tenantLatency holds one tenant's exact latencies: DoneNS - ArriveNS of
// every completed job, plus the refused arrivals, which count as infinitely
// late (an SLO miss at any quantile they reach).
type tenantLatency struct {
	slo     sim.Time
	lat     []int64 // sorted
	refused int64
}

func (t *tenantLatency) samples() int { return len(t.lat) + int(t.refused) }

// quantile is the nearest-rank q-quantile (the smallest sample with rank
// >= ceil(q*n)); +Inf when it lands on a refused arrival.
func (t *tenantLatency) quantile(q float64) float64 {
	n := t.samples()
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	if rank > len(t.lat) {
		return math.Inf(1)
	}
	return float64(t.lat[rank-1])
}

func newServeRun(mul float64, seed int64, traced bool) (*serveRun, error) {
	scn, horizon := serveScenario(mul, seed, serveBatchArrivals)
	eng, err := serve.New(scn, serve.RunOptions{Phantom: true, Trace: traced, WallStats: traced})
	if err != nil {
		return nil, fmt.Errorf("serve %gx: %w", mul, err)
	}
	return &serveRun{mul: mul, horizon: horizon, scn: scn, eng: eng, keep: traced}, nil
}

func (r *serveRun) run() error {
	rep, err := r.eng.Run()
	if err != nil {
		return fmt.Errorf("serve %gx: %w", r.mul, err)
	}
	r.rep, r.recs = rep, r.eng.Records()
	if !r.keep {
		r.eng = nil
	}
	r.tail = map[string]*tenantLatency{}
	for _, t := range r.scn.Tenants {
		r.tail[t.Name] = &tenantLatency{slo: t.SLO}
	}
	for _, rec := range r.recs {
		if rec.Err == "" {
			tl := r.tail[rec.Tenant]
			tl.lat = append(tl.lat, rec.DoneNS-rec.ArriveNS)
		}
	}
	for _, tr := range rep.Tenants {
		tl := r.tail[tr.Name]
		sort.Slice(tl.lat, func(a, b int) bool { return tl.lat[a] < tl.lat[b] })
		for _, n := range tr.Rejected {
			tl.refused += n
		}
	}
	return nil
}

// worst returns the largest q-quantile across tenants in ms; a quantile
// that lands on a refusal is reported as the run's virtual elapsed time (a
// lower bound on how late the refused job is).
func (r *serveRun) worst(q float64) float64 {
	w := 0.0
	for _, tl := range r.tail {
		v := tl.quantile(q)
		if math.IsInf(v, 1) {
			v = float64(r.rep.ElapsedNS)
		}
		w = max(w, v/1e6)
	}
	return w
}

// goodput is completions within their tenant's SLO per virtual second of
// the nominal arrival horizon.
func (r *serveRun) goodput() float64 {
	good := 0
	for _, tl := range r.tail {
		good += sort.Search(len(tl.lat), func(i int) bool { return tl.lat[i] > int64(tl.slo) })
	}
	return float64(good) / r.horizon.Seconds()
}

// meetsSLO reports whether every tenant's exact p99 (refusals as misses)
// meets its SLO with no growing backlog: jobs arriving in the horizon's
// last quarter must not wait on average more than twice as long as those
// in its first quarter.
func (r *serveRun) meetsSLO() bool {
	for _, tl := range r.tail {
		if tl.quantile(0.99) > float64(tl.slo) {
			return false
		}
	}
	quarter := int64(r.horizon) / 4
	var early, late, ne, nl float64
	for _, rec := range r.recs {
		d := float64(rec.DoneNS - rec.ArriveNS)
		switch {
		case rec.ArriveNS < quarter:
			early, ne = early+d, ne+1
		case rec.ArriveNS >= 3*quarter:
			late, nl = late+d, nl+1
		}
	}
	return nl == 0 || ne == 0 || late/nl <= 2*early/ne
}

func serveSetup(seed int64, traced bool) (*trial, error) {
	var runs []*serveRun
	for _, mul := range serveMuls {
		r, err := newServeRun(mul, seed, traced)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return &trial{
		call: func() error {
			for _, r := range runs {
				if err := r.run(); err != nil {
					return err
				}
			}
			return nil
		},
		finish: func(full bool) *outcome { return serveOutcome(runs, full) },
	}, nil
}

// serveOutcome digests the job records of the fixed-rate runs and checks
// them: every arrival is one operation, an admitted job that did not
// complete (a job error, or one never finished) is a failed one, and
// refusals are counted apart.
func serveOutcome(runs []*serveRun, full bool) *outcome {
	d := newDigester()
	out := &outcome{}
	for _, r := range runs {
		for _, rec := range r.recs {
			fmt.Fprintf(d.h, "%+v\n", rec)
		}
		for _, tr := range r.rep.Tenants {
			out.ops.attempted += tr.Arrivals
			out.ops.failed += tr.Admitted - tr.Completed
			out.refused += tr.Arrivals - tr.Admitted
		}
	}
	out.digest = d.sum()
	if full {
		out.metrics = serveMetrics(runs)
	}
	return out
}

func serveMetrics(runs []*serveRun) map[string]float64 {
	m := zeroLayers()
	var stats []sim.Stats
	for _, r := range runs {
		m["virtual_s"] += float64(r.rep.ElapsedNS) / 1e9
		rt := r.eng.Runtime()
		rt.SyncMetrics()
		m["moved_gib"] += movedBytes(r.eng.MergedRegistry()) / gib
		stats = append(stats, rt.Engine().Stats())
		for _, tr := range r.rep.Tenants {
			m["serve.arrivals"] += float64(tr.Arrivals)
			m["serve.admitted"] += float64(tr.Admitted)
			m["serve.rejected.quota"] += float64(tr.Rejected["quota"])
			m["serve.rejected.backlog"] += float64(tr.Rejected["backlog"])
		}
		names := make([]string, 0, len(r.tail))
		for n := range r.tail {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			tl := r.tail[n]
			fmt.Printf("serve %gx %-12s samples %5d refused %4d p50 %9.3f ms p99 %9.3f ms (slo %v)\n",
				r.mul, n, tl.samples(), tl.refused, tl.quantile(0.5)/1e6, tl.quantile(0.99)/1e6, tl.slo)
			if tl.samples() < serveMinSamples {
				fmt.Printf("warning: serve %gx %s has %d samples, fewer than %d\n", r.mul, n, tl.samples(), serveMinSamples)
			}
		}
		switch r.mul {
		case 2, 4:
			sfx := fmt.Sprintf(".%gx", r.mul)
			m["p50_ms"+sfx] = r.worst(0.5)
			m["p99_ms"+sfx] = r.worst(0.99)
		case 8:
			m["goodput_jps.8x"] = r.goodput()
		}
		if r.mul == 4 {
			journeyShares(m, r.eng)
		}
	}
	engineMetrics(m, stats...)
	return m
}

// journeyShares decomposes the worst tenant's p99 tail at 4x into phases,
// grouping per-lane phases ("stage:node0/io") by their prefix.
func journeyShares(m map[string]float64, eng *serve.Engine) {
	rep := eng.TailReport(0.99)
	if rep == nil || len(rep.Tenants) == 0 {
		return
	}
	worst := rep.Tenants[0]
	for _, t := range rep.Tenants[1:] {
		if t.ThresholdNS > worst.ThresholdNS {
			worst = t
		}
	}
	for _, ph := range worst.Phases {
		prefix, _, _ := strings.Cut(ph.Phase, ":")
		if _, ok := m["journey.p99_share."+prefix]; ok {
			m["journey.p99_share."+prefix] += ph.Share
		}
	}
}

// serveExtras searches for slo_rate_jps: the highest aggregate offered rate
// whose run meets every tenant's SLO with no growing backlog. It brackets
// the knee by doubling or halving from [2x, 4x] and then bisects.
func serveExtras(seed int64, m map[string]float64) error {
	meets := func(mul float64) (bool, error) {
		r, err := newServeRun(mul, seed, false)
		if err != nil {
			return false, err
		}
		if err := r.run(); err != nil {
			return false, err
		}
		return r.meetsSLO(), nil
	}
	lo, hi := 2.0, 4.0
	for {
		ok, err := meets(lo)
		if err != nil {
			return err
		}
		if ok || lo <= 0.25 {
			break
		}
		lo, hi = lo/2, lo
	}
	for {
		ok, err := meets(hi)
		if err != nil {
			return err
		}
		if !ok || hi >= 32 {
			break
		}
		lo, hi = hi, hi*2
	}
	for i := 0; i < 5; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	m["slo_rate_jps"] = lo * serveBaseJPS
	fmt.Printf("serve slo search: meets SLO at %.4gx (%.1f jobs/s), misses at %.4gx\n", lo, lo*serveBaseJPS, hi)
	return nil
}

// serveCheck runs a short 1x scenario (35 arrivals) twice, phantom and
// functional (real kernels, real result hashes). Phantom mode only drops
// payloads, so both runs must produce the same job timeline, and every
// functional job must succeed with a nonzero result hash. Job errors and
// unfinished jobs of the timed runs are counted by serveOutcome.
func serveCheck(seed int64, t *tally) {
	scn, _ := serveScenario(1, seed, 10)
	var recs [2][]serve.JobRecord
	for i, phantom := range []bool{true, false} {
		eng, err := serve.New(scn, serve.RunOptions{Phantom: phantom})
		if err == nil {
			_, err = eng.Run()
		}
		if err != nil {
			t.add(false, fmt.Sprintf("serve functional check: %v", err))
			return
		}
		recs[i] = eng.Records()
	}
	ok := len(recs[0]) == len(recs[1]) && len(recs[0]) > 0
	for i := 0; ok && i < len(recs[0]); i++ {
		p, f := recs[0][i], recs[1][i]
		ok = f.Err == "" && f.Hash != 0 && p.Tenant == f.Tenant && p.ID == f.ID &&
			p.ArriveNS == f.ArriveNS && p.StartNS == f.StartNS && p.DoneNS == f.DoneNS
	}
	t.add(ok, fmt.Sprintf("serve functional check (%d jobs): functional timeline or hashes differ from phantom", len(recs[1])))
}
