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
// hooks, or to an app's shared definition under its drivers, must
// reproduce every byte; update a hash only with a change that
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
	"gemm/northup-apu": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "063f470899687c624841227005efa28a17032af36bf316fa8cea65c1b94a625f",
		"prom":   "598b21509596ad1bfc712638a9a1fe34005083e6b116646be895234b0633bf4c",
		"series": "6ffc12385d4448ec32b686afde983b82a858e863e74220eda7ecfd8ccb09bc61",
		"trace":  "f95ddab57e5b67263e0a77b7270468113a3c81dba035f93b16cc652fb912ee02",
	},
	"gemm/northup-discrete": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "4552318c60b15359d727680ea9e9be6720cb19ed0ff17f5345cded1512db2e4e",
		"prom":   "520f7cbe16441cba24b51ab3ebc1d5849772abf637a528601314f57b69192af7",
		"series": "7e549ffc9e4cc23e60dc17b744be6d9da21e7f722866e617d816840ee2b512ec",
		"trace":  "089b3edee73a227f688376d67bbdef4b8f58ace973cc67d579f969173f12c118",
	},
	"gemm/streamed": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "53a6a5721e1d9407b2a5eaa09e5e9da7ffc8beb8f3c0854f07c466688af42ff9",
		"prom":   "55efea1e634b89b83444981826a3e4c5a38c283ae93e0e3a9f5044ad1eb428c8",
		"series": "eb1b0169ac86d40a68241417bf2c899d9894d6a8caa4fee135f6b6fe96f4d1d4",
		"trace":  "ef432cc019d1924f3177aef9c16498a98cf8246b006448293813e0d5cfed8d3e",
	},
	"gemm/stageb-nvm": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "c3b19092f571f6113cf051e1c561b4a5b06513229409bb242452f1797ecb8df7",
		"prom":   "e3701aeaa67d800f20b01f80de46810c994dce8c71157afd7bf6133f939b0e1b",
		"series": "68d06d05977ed1202ff667a3109e72a6b6483cb90af47635f0fc01a3641da6f9",
		"trace":  "b938cdbd3787ef33457c62e42a99906b7c54be30b6bafff3c9e9ca46e3cbebe9",
	},
	"spmv/northup-apu": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "4e39a5de0be78f09cebd6614f350806a188c7f3a36b2fe4d8e86f0cb341a6f79",
		"prom":   "f694cb28de4a87c1f0660018cf5d40adbea975a942fd2abc795e0cd69a74cfd9",
		"series": "deb5b30493627b9bf22d3b66dea4834a7b4bbde1ce49cd84f975000bdc1371fd",
		"trace":  "9cd8f5611ae35ac83288d63da1dc711621bf706f15ff4c45c123991198625332",
	},
	"spmv/northup-discrete": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "b2be0b065109bbaf0a562d79ce25169702a4e38a5f68d8ad8c1da8d69bb752f0",
		"prom":   "47b3e5e2cf5dc309947b8f370289ded0521cd2832bc49e8b7919fbfd19770410",
		"series": "bf6c9c33e9f20cde490e482fb85fe6e7a1c1e0338869c89c848ea0be14312076",
		"trace":  "8bbd5e95e18ab58c86d4f85f11cfd905e3f078a61b094b1aa76791adf9b593fa",
	},
	"hotspot/northup-apu": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "e62b719c63938e64a3d0d59d1d835855ce5ab25199ee3549ecb77bf73a243544",
		"prom":   "403e3f22737c0f3a294804e4cacd46c4a8d55c6c5ab3abcb753376fe9e90a3aa",
		"series": "d0cd41ad42482cd7bc6117e11f722698128cc23277ba3a192b103e14590018e4",
		"trace":  "50edaf1332ab72de827a06e9ebe05681e0d59f204f3c944b6d50c22386a6e434",
	},
	"hotspot/northup-discrete": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "0060b827ef148f39ab3db5d528702348c79db53233f57722a9d0fa504226ff56",
		"prom":   "d8317367c86675d5b0dc4383274497ae3b4742a188741638ec60d2feaa842183",
		"series": "e7667012c09591bf00ef45adb915d4acabe283f9dc1b7d62c416f9c690f2ef83",
		"trace":  "0b87cc2c493628820dc72a664fb3e7be15ff272f8733c9edb445995d19154c81",
	},
	"hotspot/streamed": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "9743b20b7a44dffd447b99067b21dca08e52aed6148643ce4e38d3f0b31a4e4a",
		"prom":   "1a7a63ff6a87b1ab0172c7486ae254feb695f8715962a04db5774e99437849f4",
		"series": "e16d9f111d5e866502aae9aad45960278cac33b196930900dbb870a795de6b47",
		"trace":  "3b98d2919ed4d2c0239f22bf897c7058250697337dd41b29820cb00607bf7d8b",
	},
	"hotspot/inmemory": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "9c0863399240b156e287535ba7e39a5d81d58c04852ca3d89fa6705230674b95",
		"prom":   "0f25aa1cd4f762d6392fc5ea0bffe45e332cb8d39e0cd12f6194495e73373324",
		"series": "8a8c92251e339c460aef35a7d1886f4a1bc2ccc27a5f1433463061962b5cfecc",
		"trace":  "ed1e1a9073bde98cb38ab74c9eaf8552a02d4a77e28dff3a7a8879f5561e1a19",
	},
	"hotspot/profiled": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "84a8be39e5a20b2623a298fab4cb3734ac40de90daee537dc8b8434633a26b72",
		"prom":   "4c4e325bc97ceb4f638d084320fe56307f2c31e314d6e427ce5904c1bd0acdc3",
		"series": "b9e515b029e44f9c9ec6c026e96ba6cfba63898e08e6c7e8bfd13fa05d818b9f",
		"trace":  "c291c194878627f4833ca5e9f20d00c76d2af413034de43532604b955b4a4c6f",
	},
	"hotspot/multibranch-static": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "65efa3fe4af4608557047ec47bb0a30bf1bade006bb5ca96be0e99ff8a74f270",
		"prom":   "74d763720ba683cca84b682e4f842c8bb35096e79cfc55d55725c2c3b2d0324a",
		"series": "1b06c59fb6a94f80a4c74cae550f16f058c1ffc82f74966025037ac9b73d9f95",
		"trace":  "be5f72267bc0bd7052a81d31410c7ee57191f0fdd3aa7fd548156d125edba93e",
	},
	"hotspot/multibranch-dynamic": {
		"order":  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"stats":  "26e542607101ff2185f7e33a56e1029616b478efcd9a9b371568cd3ae86a757c",
		"prom":   "f84accdc985198574fde79766618f7993490a34f37cbe4d083d159ef54f3c887",
		"series": "bed2aa816f77c4569d788c9e8a30e985ac3e00de30b25028be97c4bcbf6bbef2",
		"trace":  "51f87e2490f99f32e498f3b4f77edf78651446419462b1adb79fd28bcd098f3e",
	},
}

// goldenRuntime builds a phantom, traced and metered apu-ssd runtime with
// the staging cache at cacheBytes (0: off).
func goldenRuntime(cacheBytes int64) (*core.Runtime, *obs.Registry, *obs.Sampler) {
	return goldenRuntimeOn(goldenAPU, cacheBytes)
}

// Trees the golden runs use: the 2-level APU, the 3-level discrete-GPU
// tree on an HDD root (so file placement feeds the seek model), the §VI
// NVM-staged tree, a two-branch tree with one fast and one slow GPU, and
// the single-DRAM in-memory baseline.
func goldenAPU(e *sim.Engine) *topo.Tree {
	return topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 8, WithCPU: true})
}

func goldenDiscrete(e *sim.Engine) *topo.Tree {
	return topo.Discrete(e, topo.DiscreteConfig{Storage: topo.HDD, StorageMiB: 64, DRAMMiB: 8, GPUMemMiB: 2})
}

func goldenNVM(e *sim.Engine) *topo.Tree {
	return topo.APUWithNVM(e, topo.NVMConfig{Storage: topo.SSD, StorageMiB: 64, NVMMiB: 32, DRAMMiB: 8})
}

func goldenBranches(e *sim.Engine) *topo.Tree {
	return topo.MultiBranch(e, topo.MultiBranchConfig{Storage: topo.SSD, StorageMiB: 64,
		BranchDRAMMiB: []int64{8, 8}, FastBranches: []bool{false, true}})
}

func goldenInMemory(e *sim.Engine) *topo.Tree { return topo.InMemory(e, 8) }

// goldenRuntimeOn is goldenRuntime on the tree that build returns.
func goldenRuntimeOn(build func(*sim.Engine) *topo.Tree, cacheBytes int64) (*core.Runtime, *obs.Registry, *obs.Sampler) {
	e := sim.NewEngine()
	tree := build(e)
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

// legacyGolden lists the recursive (non-graph) drivers: each app's
// RunNorthup on the 2- and 3-level trees, GEMM's streamed and NVM-staged
// variants, and HotSpot's streamed, in-memory, profiled and multi-branch
// runs. Each returns the string its "stats" digest hashes.
var legacyGolden = []struct {
	name  string
	tree  func(*sim.Engine) *topo.Tree
	cache int64
	run   func(rt *core.Runtime) (string, error)
}{
	{"gemm/northup-apu", goldenAPU, 1 << 20, func(rt *core.Runtime) (string, error) {
		r, err := gemm.RunNorthup(rt, gemm.Config{N: 256, Seed: 1, ShardDim: 64})
		return goldenResult(r, err)
	}},
	{"gemm/northup-discrete", goldenDiscrete, 1 << 20, func(rt *core.Runtime) (string, error) {
		r, err := gemm.RunNorthup(rt, gemm.Config{N: 256, Seed: 1, ShardDim: 64})
		return goldenResult(r, err)
	}},
	{"gemm/streamed", goldenDiscrete, 1 << 20, func(rt *core.Runtime) (string, error) {
		r, err := gemm.RunNorthup(rt, gemm.Config{N: 256, Seed: 1, ShardDim: 128, Streamed: true})
		return goldenResult(r, err)
	}},
	{"gemm/stageb-nvm", goldenNVM, 1 << 20, func(rt *core.Runtime) (string, error) {
		r, err := gemm.RunNorthup(rt, gemm.Config{N: 256, Seed: 1, ShardDim: 64, StageB: true})
		return goldenResult(r, err)
	}},
	{"spmv/northup-apu", goldenAPU, 512 << 10, func(rt *core.Runtime) (string, error) {
		r, err := spmv.RunNorthup(rt, spmv.Config{N: 8192, AvgNNZ: 16, Kind: workload.SparsePowerLaw,
			Seed: 1, Iters: 2, Chunks: 8})
		return goldenResult(r, err)
	}},
	{"spmv/northup-discrete", goldenDiscrete, 512 << 10, func(rt *core.Runtime) (string, error) {
		r, err := spmv.RunNorthup(rt, spmv.Config{N: 8192, AvgNNZ: 16, Kind: workload.SparsePowerLaw,
			Seed: 1, Iters: 2, Chunks: 8})
		return goldenResult(r, err)
	}},
	{"hotspot/northup-apu", goldenAPU, 1 << 20, func(rt *core.Runtime) (string, error) {
		r, err := hotspot.RunNorthup(rt, hotspot.Config{N: 256, Seed: 1, ChunkDim: 128, Iters: 3, Passes: 2})
		return goldenResult(r, err)
	}},
	{"hotspot/northup-discrete", goldenDiscrete, 1 << 20, func(rt *core.Runtime) (string, error) {
		r, err := hotspot.RunNorthup(rt, hotspot.Config{N: 256, Seed: 1, ChunkDim: 128, Iters: 3, Passes: 2})
		return goldenResult(r, err)
	}},
	{"hotspot/streamed", goldenDiscrete, 1 << 20, func(rt *core.Runtime) (string, error) {
		r, err := hotspot.RunNorthup(rt, hotspot.Config{N: 256, Seed: 1, ChunkDim: 128, Iters: 3, Passes: 2,
			Streamed: true, StreamOpts: core.StreamOptions{SubChunks: 3}})
		return goldenResult(r, err)
	}},
	{"hotspot/inmemory", goldenInMemory, 0, func(rt *core.Runtime) (string, error) {
		r, err := hotspot.RunInMemory(rt, hotspot.Config{N: 256, Seed: 1, Iters: 3, Passes: 2})
		return goldenResult(r, err)
	}},
	{"hotspot/profiled", goldenAPU, 0, func(rt *core.Runtime) (string, error) {
		r, err := hotspot.RunProfiled(rt, hotspot.Config{N: 256, Seed: 1, ChunkDim: 64, Iters: 3})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v %d %d", r.Result, r.ChunksOnGPU, r.ChunksOnCPU), nil
	}},
	{"hotspot/multibranch-static", goldenBranches, 0, func(rt *core.Runtime) (string, error) {
		r, err := hotspot.RunMultiBranch(rt, hotspot.MultiBranchConfig{N: 1024, Seed: 1, ChunkDim: 256,
			Iters: 30, Policy: hotspot.StaticPartition})
		return goldenResult(r, err)
	}},
	{"hotspot/multibranch-dynamic", goldenBranches, 0, func(rt *core.Runtime) (string, error) {
		r, err := hotspot.RunMultiBranch(rt, hotspot.MultiBranchConfig{N: 1024, Seed: 1, ChunkDim: 256,
			Iters: 30, Policy: hotspot.DynamicQueue})
		return goldenResult(r, err)
	}},
}

// goldenResult renders a phantom driver result for the "stats" digest.
func goldenResult[R any](r *R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%+v", *r), nil
}

// TestSchedulerGolden runs the task-graph apps under both placement
// policies, the hotspot CPU+GPU stealing scheduler and every legacy
// recursive driver, and requires every observable to match the pinned
// hashes byte for byte.
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

	for _, lc := range legacyGolden {
		rt, reg, sampler := goldenRuntimeOn(lc.tree, lc.cache)
		stats, err := lc.run(rt)
		if err != nil {
			t.Fatalf("%s: %v", lc.name, err)
		}
		got[lc.name] = goldenDigests(t, rt, reg, sampler, stats)
	}

	for run, sums := range got {
		if schedulerGolden[run] == nil {
			t.Errorf("%s: no pinned hashes; got %q", run, sums)
		}
	}
	for run, want := range schedulerGolden {
		for part, sum := range want {
			if got[run][part] != sum {
				t.Errorf("%s %s: sha256 %s, want %s", run, part, got[run][part], sum)
			}
		}
	}
}
