package taskgraph

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkGraphRun measures one Graph.Run of 256 independent phantom
// tasks, each declaring a distinct 64 KiB read extent of a storage buffer,
// on the default two-worker pool: the host cost of the dispatch loop under
// each placer (deque pops and steals vs. full ready-list scoring), with
// empty task bodies.
func BenchmarkGraphRun(b *testing.B) {
	const tasks, extent = 256, 64 << 10
	for _, bc := range []struct {
		name     string
		affinity bool
	}{{"steal", false}, {"affinity", true}} {
		b.Run(bc.name, func(b *testing.B) {
			rt, _ := newStagedRuntime(0)
			in, err := rt.CreateInput(rt.Tree().Root(), "in", tasks*extent, nil)
			if err != nil {
				b.Fatal(err)
			}
			g := New()
			for i := 0; i < tasks; i++ {
				g.Add(&Task{
					Name:  "leaf",
					Reads: []Extent{{in, int64(i) * extent, extent}},
					Cost:  1,
					Run:   func(*core.Ctx) error { return nil },
				})
			}
			opts := Options{Affinity: bc.affinity}
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
