package hotspot

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRunNorthupReleasesOnAllocFailure runs two 4 MiB chunks through a
// 10 MiB GPU memory: the third device allocation of the first chunk
// fails. The run must return that error and leave every memory node as
// empty as it found it — the chunk's device buffers and the pipeline's
// in-flight staging slots included.
func TestRunNorthupReleasesOnAllocFailure(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD, StorageMiB: 256,
		DRAMMiB: 64, GPUMemMiB: 10})
	opts := core.DefaultOptions()
	opts.Phantom = true
	rt := core.NewRuntime(e, tree, opts)
	_, err := RunNorthup(rt, Config{N: 2048, ChunkDim: 1024, Iters: 2})
	if err == nil {
		t.Fatal("run fit in 10 MiB of GPU memory; want an allocation error")
	}
	if !strings.Contains(err.Error(), tree.Leaves()[0].String()) {
		t.Errorf("error %q does not name the GPU memory node", err)
	}
	for _, n := range tree.Nodes() {
		if n.Store != nil {
			continue
		}
		if n.Mem.Free() != n.Mem.Capacity() {
			t.Errorf("%v: %d of %d bytes still allocated after the failed run",
				n, n.Mem.Used(), n.Mem.Capacity())
		}
	}
}
