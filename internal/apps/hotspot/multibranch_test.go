package hotspot

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

func newMultiBranchRuntime(phantom bool, fast []bool, dramMiB int64) *core.Runtime {
	e := sim.NewEngine()
	drams := make([]int64, len(fast))
	for i := range drams {
		drams[i] = dramMiB
	}
	tree := topo.MultiBranch(e, topo.MultiBranchConfig{
		Storage: topo.SSD, StorageMiB: 512,
		BranchDRAMMiB: drams, FastBranches: fast,
	})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	return core.NewRuntime(e, tree, opts)
}

func TestMultiBranchMatchesReference(t *testing.T) {
	for _, policy := range []BranchPolicy{StaticPartition, DynamicQueue} {
		cfg := MultiBranchConfig{N: 64, Seed: 8, ChunkDim: 16, Iters: 3, Policy: policy}
		rt := newMultiBranchRuntime(false, []bool{false, true}, 8)
		res, err := RunMultiBranch(rt, cfg)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		g := workload.HotSpotGrid(cfg.N, cfg.Seed)
		want, err := ReferenceBlocked(g.Temp, g.Power, cfg.N, cfg.ChunkDim, cfg.Iters)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(res.Temp, want) {
			t.Fatalf("%v: multi-branch result differs from blocked reference", policy)
		}
		total := 0
		for _, n := range res.ChunksByBranch {
			total += n
		}
		if total != 16 {
			t.Fatalf("%v: %d chunks processed, want 16", policy, total)
		}
	}
}

func TestDynamicQueueBalancesAsymmetricBranches(t *testing.T) {
	// One integrated-GPU branch, one discrete-GPU branch: the fast branch
	// must take more chunks under the dynamic policy, and the dynamic
	// policy must beat the static even split.
	cfg := MultiBranchConfig{N: 4096, ChunkDim: 512, Iters: 30}
	run := func(policy BranchPolicy) *MultiBranchResult {
		cfg := cfg
		cfg.Policy = policy
		rt := newMultiBranchRuntime(true, []bool{false, true}, 16)
		res, err := RunMultiBranch(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(StaticPartition)
	dynamic := run(DynamicQueue)
	if dynamic.ChunksByBranch[1] <= dynamic.ChunksByBranch[0] {
		t.Fatalf("fast branch took %d chunks, slow took %d",
			dynamic.ChunksByBranch[1], dynamic.ChunksByBranch[0])
	}
	if static.ChunksByBranch[0] != static.ChunksByBranch[1] {
		t.Fatalf("static partition uneven: %v", static.ChunksByBranch)
	}
	if dynamic.Stats.Elapsed >= static.Stats.Elapsed {
		t.Fatalf("dynamic (%v) not faster than static (%v) on asymmetric branches",
			dynamic.Stats.Elapsed, static.Stats.Elapsed)
	}
}

func TestMultiBranchSymmetricSplitsEvenly(t *testing.T) {
	cfg := MultiBranchConfig{N: 1024, ChunkDim: 256, Iters: 8, Policy: DynamicQueue}
	rt := newMultiBranchRuntime(true, []bool{false, false}, 8)
	res, err := RunMultiBranch(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.ChunksByBranch[0], res.ChunksByBranch[1]
	if a+b != 16 {
		t.Fatalf("chunks = %d+%d", a, b)
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > 4 {
		t.Fatalf("symmetric branches unbalanced: %d vs %d", a, b)
	}
}

func TestMultiBranchValidation(t *testing.T) {
	rt := newMultiBranchRuntime(true, []bool{false}, 8)
	if _, err := RunMultiBranch(rt, MultiBranchConfig{N: 100, ChunkDim: 30}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// namedMonitor is a work-queue monitor another scheduler left on the root.
type namedMonitor string

func (m namedMonitor) Name() string { return string(m) }
func (m namedMonitor) Len() int     { return 0 }

// TestMultiBranchFailureCleansUp runs chunks too large for the branches'
// staging memory (three 1 MiB chunk buffers into 2 MiB): the allocation
// error must reach the caller, the buffers allocated before the failing
// one must be released on every branch, and the run must detach exactly
// the root queues it attached.
func TestMultiBranchFailureCleansUp(t *testing.T) {
	for _, policy := range []BranchPolicy{StaticPartition, DynamicQueue} {
		rt := newMultiBranchRuntime(true, []bool{false, false}, 2)
		root := rt.Tree().Root()
		other := namedMonitor("other-job")
		detach := root.AttachQueues(other)
		_, err := RunMultiBranch(rt, MultiBranchConfig{N: 1024, ChunkDim: 512, Iters: 1, Policy: policy})
		if err == nil {
			t.Fatalf("%v: oversized chunks ran without an error", policy)
		}
		for _, b := range root.Children {
			if free, capacity := b.Mem.Free(), b.Mem.Capacity(); free != capacity {
				t.Errorf("%v: branch %v free %d of %d bytes after the run", policy, b, free, capacity)
			}
		}
		if len(root.Queues) != 1 || root.Queues[0] != other {
			t.Errorf("%v: root queues after the run = %v, want only the pre-attached monitor", policy, root.Queues)
		}
		detach()
		if len(root.Queues) != 0 {
			t.Errorf("%v: %d root queues left after detaching", policy, len(root.Queues))
		}
	}
}
