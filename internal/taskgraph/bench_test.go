package taskgraph

import (
	"testing"

	"repro/internal/core"
)

// benchInput creates a phantom storage input of size bytes.
func benchInput(b *testing.B, rt *core.Runtime, name string, size int64) *core.Buffer {
	b.Helper()
	in, err := rt.CreateInput(rt.Tree().Root(), name, size, nil)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func noop(*core.Ctx) error { return nil }

// BenchmarkGraphAdd measures building a GEMM-shaped graph: a side x side
// grid of tasks, task (i, j) reading row shard i of A and column shard j of
// B (each shared by side tasks) and writing its own block of C (disjoint),
// so every Add searches the index for conflicts that do not exist.
func BenchmarkGraphAdd(b *testing.B) {
	for _, bc := range []struct {
		name string
		side int
	}{{"1k", 32}, {"16k", 128}} {
		b.Run(bc.name, func(b *testing.B) {
			const shard, block = 64 << 10, 1 << 10
			rt, _ := newSizedRuntime(64, 0)
			side := int64(bc.side)
			fa := benchInput(b, rt, "a", side*shard)
			fb := benchInput(b, rt, "b", side*shard)
			fc := benchInput(b, rt, "c", side*side*block)
			tasks := make([]Task, side*side)
			for i := range tasks {
				r, c := int64(i)/side, int64(i)%side
				tasks[i] = Task{Name: "block", Cost: 1, Run: noop,
					Reads:  []Extent{{fa, r * shard, shard}, {fb, c * shard, shard}},
					Writes: []Extent{{fc, int64(i) * block, block}}}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for i := range tasks {
					tasks[i].outs, tasks[i].nblock = nil, 0
				}
				g := New()
				b.StartTimer()
				for i := range tasks {
					g.Add(&tasks[i])
				}
			}
		})
	}
}

// BenchmarkGraphRun measures one Graph.Run on the default two-worker pool:
// the host cost of the dispatch loop under each placer.
//   - steal, affinity: 256 independent tasks, each reading its own 64 KiB
//     extent of a storage buffer, with empty bodies and no staging cache.
//   - steal-16k, affinity-16k: 16384 such tasks reading 4 KiB each.
//   - affinity-cache-4k: a 64 x 64 grid of tasks, task (i, j) fetching
//     64 KiB shard i of A and shard j of B into DRAM through a staging cache
//     that holds half of them, so fetches and evictions keep re-pricing
//     ready tasks.
func BenchmarkGraphRun(b *testing.B) {
	independent := func(tasks int, extent int64) func(*testing.B) (*core.Runtime, *Graph, Options) {
		return func(b *testing.B) (*core.Runtime, *Graph, Options) {
			rt, _ := newSizedRuntime(64, 0)
			in := benchInput(b, rt, "in", int64(tasks)*extent)
			g := New()
			for i := 0; i < tasks; i++ {
				g.Add(&Task{Name: "leaf", Cost: 1, Run: noop,
					Reads: []Extent{{in, int64(i) * extent, extent}}})
			}
			return rt, g, Options{}
		}
	}
	cachedGrid := func(b *testing.B) (*core.Runtime, *Graph, Options) {
		const side, shard = 64, 64 << 10
		rt, dram := newSizedRuntime(64, side*shard>>20)
		fa := benchInput(b, rt, "a", side*shard)
		fb := benchInput(b, rt, "b", side*shard)
		fetch := func(c *core.Ctx, src *core.Buffer, off int64) error {
			buf, err := c.MoveDataDownCached(dram, src, off, shard)
			if err != nil {
				return err
			}
			return c.Unpin(buf)
		}
		g := New()
		for i := int64(0); i < side; i++ {
			for j := int64(0); j < side; j++ {
				i, j := i, j
				g.Add(&Task{Name: "block", Cost: 1,
					Reads: []Extent{{fa, i * shard, shard}, {fb, j * shard, shard}},
					Run: func(c *core.Ctx) error {
						if err := fetch(c, fa, i*shard); err != nil {
							return err
						}
						return fetch(c, fb, j*shard)
					}})
			}
		}
		return rt, g, Options{Node: dram}
	}
	for _, bc := range []struct {
		name     string
		affinity bool
		build    func(*testing.B) (*core.Runtime, *Graph, Options)
	}{
		{"steal", false, independent(256, 64<<10)},
		{"affinity", true, independent(256, 64<<10)},
		{"steal-16k", false, independent(16384, 4<<10)},
		{"affinity-16k", true, independent(16384, 4<<10)},
		{"affinity-cache-4k", true, cachedGrid},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rt, g, opts := bc.build(b)
			opts.Affinity = bc.affinity
			run := func(c *core.Ctx) error {
				_, err := g.Run(c, opts)
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Run("bench", run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
