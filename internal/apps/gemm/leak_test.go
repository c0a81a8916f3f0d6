package gemm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRunNorthupReleasesOnFailure gives the GPU memory too little room
// for any k-panel, so the first shard multiply fails with column shards
// and C blocks in flight at the staging level. The run must return that
// error and leave every memory node as empty as it found it.
func TestRunNorthupReleasesOnFailure(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD, StorageMiB: 64,
		DRAMMiB: 16, GPUMemMiB: 1})
	opts := core.DefaultOptions()
	opts.Phantom = true
	rt := core.NewRuntime(e, tree, opts)
	if _, err := RunNorthup(rt, Config{N: 1024, ShardDim: 512}); err == nil {
		t.Fatal("run fit in 1 MiB of GPU memory; want an error")
	}
	for _, n := range tree.Nodes() {
		if n.Store == nil && n.Mem.Free() != n.Mem.Capacity() {
			t.Errorf("%v: %d of %d bytes still allocated after the failed run",
				n, n.Mem.Used(), n.Mem.Capacity())
		}
	}
}
