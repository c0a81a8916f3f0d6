package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/apps/spmv"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// schedulerGolden pins, per leaf-scheduler run, the SHA-256 of every
// observable the scheduling layer produces with tracing and metrics on:
// the task placement order (the "place" instants' task IDs), the dispatch
// statistics, the Prometheus text, the sampled metrics JSON and the Chrome
// trace export. Schedules and telemetry are deterministic contracts, so a
// change to the task-graph dispatch loop, its placers or the shared deque
// hooks must reproduce every byte; update a hash only with a change that
// alters scheduling on purpose and says so.
var schedulerGolden = map[string]map[string]string{
	"gemm/steal": {
		"order":  "ae634bf36b6aaf0fd676e2644b34563f1c6bd2ea12233356c4a0addd7caf4362",
		"stats":  "c9b83bb09313d46dab46997675baf968674a56e014ff87d3e9bcc64520e54e85",
		"prom":   "2c54027ee2a48c11c8be8c6f3030ae16fcc35eaaead2173ce78342108a0987e6",
		"series": "9311aff8644444dced7f7753c68adf4b087e1e1ea8183afd6eedce7f165a5b56",
		"trace":  "c33214f3a80647007839c2cf3227caf1d505c8ff75ded65e8e8ecba25ec20c88",
	},
	"gemm/affinity": {
		"order":  "9d9bd1a959e4d4222cdc77c2440b6af1f2335533fe902679ae44656a5b1747c5",
		"stats":  "3607ffd21518a12401060492fc34f14b3b5ebd3f3bdfc7a32b85f7dd38801b48",
		"prom":   "8cd9b9a50ae924a1e585cdce076cd1464e67432d9f39d8e3faadc37cd9bbfcf6",
		"series": "8757481175e0336f3ff5ff89f1e0f79ed6f1e8da912b65384890d83cc081bf92",
		"trace":  "9d58256f42d3de901fafbd5d5303326e1f93e1a48c8e9beb9fd7070091b8d9cc",
	},
	"spmv/steal": {
		"order":  "4c21aeb53698afc2717d0393a32b35594de4e1471fcf52c71a6fc941e793d9eb",
		"stats":  "35e2f3e882441bc4b66bc2f6cfc600aaa33b2c8453a7ac437b125ae2cc93e08a",
		"prom":   "f5f390f786da28edf884957231fadf21b3dbb9081efe7ff7c8f9357b75f51c45",
		"series": "56277d61d326d2f8700b4c1667182d8f9ce1b5ac2718aad0f4d9175da3b7f574",
		"trace":  "010b3b55ed066517042ed290c8fda9f4c99a71ab97a445b5d46a35763243713c",
	},
	"spmv/affinity": {
		"order":  "cb64d6d13ba5e6081ea2b01d277aecdb79195dc57e56e045512d31b3ca0bdb9f",
		"stats":  "2a74c1f065ef7e0900cd83796a03f8cb7872d34426204b71a8b6cf7834f53903",
		"prom":   "38d34f92121a5c52ed5eeded1e6edab04d28ce0343cec63d1cbda71c2e316060",
		"series": "959fa3e1b6c9a674eb07f4aba8f444d4e05885baec5e54890b549d6da37b7476",
		"trace":  "5acdcba2535f2e91a903aeb6eba138cfce428197e9bbe77ea6fb3b4db21593ee",
	},
	"spmv/affinity-profiled": {
		"order":  "db6dc59bc3b7288b6f861948214fc68a1b63f0240387362c653a54b0f3fd271b",
		"stats":  "7db1e9350286910446f2c522372cdedfc0180eb0a0b94395e0c7cb759a110500",
		"prom":   "c378c7aef5df72c30660cdb0fb66ac79ea69e58a79a5c76432f76feec6acc548",
		"series": "52c356043f641d947d4daddb806054d3cbfd42cfd94e574f002d618973a95a2b",
		"trace":  "0105a3b50904c9c0dbb7d1588772eaf537286d41a57a04926daad916cf01a9af",
	},
	"hotspot/steal": {
		"stats":  "ccadf8658e1809f5fd8b633ef7d01cc44452fd786d3a20d7cb23edfe4e426638",
		"prom":   "7025cb43938389c295fdb9c999cd2ea1436366636f7b4f6a1f185c7bb5c49642",
		"series": "ba023b77d75b2b6939d900f61c9ec6d90d473c041465a55a4cbba52a3b3b25e5",
		"trace":  "e253bec3cda07f1c784c98c3d54fd66e523eeea2687db0d9c22b6c49328c3b9c",
	},
}

// goldenRuntime builds a phantom, traced and metered apu-ssd runtime with
// the staging cache at cacheBytes (0: off).
func goldenRuntime(cacheBytes int64) (*core.Runtime, *obs.Registry, *obs.Sampler) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 8, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Phantom = true
	if cacheBytes > 0 {
		opts.Cache = core.CacheOptions{Enabled: true, CapacityBytes: cacheBytes}
	}
	reg := obs.NewRegistry()
	sampler := obs.NewSampler(reg, obs.SamplerOptions{Tick: 50 * sim.Microsecond})
	opts.Metrics = reg
	opts.Sampler = sampler
	opts.Trace = trace.NewRecorder(trace.Options{MaxEvents: 1 << 20})
	return core.NewRuntime(e, tree, opts), reg, sampler
}

// goldenDigests renders a finished run's observables and hashes each.
func goldenDigests(t *testing.T, rt *core.Runtime, reg *obs.Registry, sampler *obs.Sampler, stats string) map[string]string {
	t.Helper()
	rt.SyncMetrics()
	rec := rt.TraceRecorder()
	if rec.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", rec.Dropped())
	}
	events := rec.Events()
	var order bytes.Buffer
	for _, ev := range events {
		if ev.Kind == trace.KindInstant && ev.Name == "place" {
			fmt.Fprintf(&order, "%d@%d ", ev.Value, ev.Start)
		}
	}
	var prom, series, chrome bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&series, sampler); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChromeTrace(&chrome, events, trace.ChromeExportOptions{}); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for k, b := range map[string][]byte{
		"order": order.Bytes(), "stats": []byte(stats), "prom": prom.Bytes(),
		"series": series.Bytes(), "trace": chrome.Bytes(),
	} {
		sum := sha256.Sum256(b)
		out[k] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestSchedulerGolden runs the task-graph apps under both placement
// policies and the hotspot CPU+GPU stealing scheduler, and requires every
// observable to match the pinned hashes byte for byte.
func TestSchedulerGolden(t *testing.T) {
	got := map[string]map[string]string{}
	for _, affinity := range []bool{false, true} {
		policy := "steal"
		if affinity {
			policy = "affinity"
		}
		opts := taskgraph.Options{Affinity: affinity}

		rt, reg, sampler := goldenRuntime(256 * 256 * 4)
		_, st, err := gemm.RunTasks(rt, gemm.Config{N: 256, Seed: 1, ShardDim: 64}, opts)
		if err != nil {
			t.Fatalf("gemm/%s: %v", policy, err)
		}
		got["gemm/"+policy] = goldenDigests(t, rt, reg, sampler, fmt.Sprintf("%+v", *st))

		rt, reg, sampler = goldenRuntime(512 << 10)
		_, st, err = spmv.RunTasks(rt, spmv.Config{N: 8192, AvgNNZ: 16, Kind: workload.SparsePowerLaw,
			Seed: 1, Iters: 2, Chunks: 8}, opts)
		if err != nil {
			t.Fatalf("spmv/%s: %v", policy, err)
		}
		got["spmv/"+policy] = goldenDigests(t, rt, reg, sampler, fmt.Sprintf("%+v", *st))
	}

	// Three workers and an online profile: every completion feeds the
	// profile, later scores carry its compute estimates, and the tie-break
	// sees three warm workers.
	rt, reg, sampler := goldenRuntime(512 << 10)
	_, st, err := spmv.RunTasks(rt, spmv.Config{N: 8192, AvgNNZ: 16, Kind: workload.SparsePowerLaw,
		Seed: 1, Iters: 3, Chunks: 8}, taskgraph.Options{Workers: 3, Affinity: true, Profile: sched.NewProfileScheduler()})
	if err != nil {
		t.Fatalf("spmv/affinity-profiled: %v", err)
	}
	got["spmv/affinity-profiled"] = goldenDigests(t, rt, reg, sampler, fmt.Sprintf("%+v", *st))

	rt, reg, sampler = goldenRuntime(0)
	res, err := hotspot.RunSteal(rt, hotspot.StealConfig{M: 256, ChunkDim: 128, Seed: 1, Iters: 4,
		GPUQueues: 8, Mode: hotspot.CPUGPU})
	if err != nil {
		t.Fatalf("hotspot/steal: %v", err)
	}
	got["hotspot/steal"] = goldenDigests(t, rt, reg, sampler, fmt.Sprintf("%d %d %d %d %d %v",
		res.Steals, res.Pops, res.TasksByGPU, res.TasksByCPU, res.Failovers, res.Stats.Elapsed))

	for run, want := range schedulerGolden {
		for part, sum := range want {
			if got[run][part] != sum {
				t.Errorf("%s %s: sha256 %s, want %s", run, part, got[run][part], sum)
			}
		}
	}
}
