package spmv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// RunTasks executes out-of-core SpMV as an extent-declared task graph: one
// task per (iteration, shard) reading the shard's row_ptr/col_id/data extents
// from storage plus the resident x vector, and writing its row range of the
// staged y. Shards within an iteration write disjoint y rows and so run in
// any order; the power-iteration normalize task reads all of y and writes x,
// which serializes iterations through extent overlap alone — no hand-wired
// barriers. Matrix extents recur verbatim every iteration, so with affinity
// on the scorer starts each pass from the shards still resident in the
// staging cache instead of streaming back in the order that just evicted
// them.
func RunTasks(rt *core.Runtime, cfg Config, opts taskgraph.Options) (*Result, *taskgraph.Stats, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = taskgraph.DefaultWorkers
	}
	// Each in-flight task holds one shard's extents pinned at the staging
	// level.
	p, err := newProblem(rt, cfg, workers+1)
	if err != nil {
		return nil, nil, err
	}

	var tstats *taskgraph.Stats
	res, err := p.run("spmv-tasks", func(c *core.Ctx) error {
		// The graph: iterations of parallel shard tasks, serialized through
		// the normalize task's extent overlaps (it reads the whole of y and
		// rewrites x, so every next-iteration shard waits on it and it waits
		// on every shard of its own iteration).
		g := taskgraph.New()
		for iter := 0; iter < cfg.Iters; iter++ {
			for _, sh := range p.shards {
				rowOff, rowLen, off, nnzLen := p.extents(sh)
				g.Add(&taskgraph.Task{
					Name: fmt.Sprintf("spmv-shard[%d:%d]", sh.r0, sh.r1),
					Kind: "spmv-shard",
					Reads: []taskgraph.Extent{
						{Buf: p.fRow, Off: rowOff, Len: rowLen},
						{Buf: p.fCol, Off: off, Len: nnzLen},
						{Buf: p.fVal, Off: off, Len: nnzLen},
						{Buf: p.xLeaf, Off: 0, Len: p.vecBytes},
					},
					Writes: []taskgraph.Extent{
						{Buf: p.yStage, Off: int64(sh.r0) * 4, Len: int64(sh.r1-sh.r0) * 4},
					},
					Cost: float64(p.rowPtr[sh.r1] - p.rowPtr[sh.r0]),
					Run: func(sub *core.Ctx) error {
						s, err := p.stage(sub, sh)
						if err != nil {
							return err
						}
						err = p.compute(sub, sh, s)
						sub.Unpin(s.val)
						sub.Unpin(s.col)
						sub.Unpin(s.row)
						return err
					},
				})
			}
			if iter < cfg.Iters-1 {
				writes := []taskgraph.Extent{{Buf: p.xStage, Off: 0, Len: p.vecBytes}}
				if p.xLeaf != p.xStage {
					writes = append(writes, taskgraph.Extent{Buf: p.xLeaf, Off: 0, Len: p.vecBytes})
				}
				g.Add(&taskgraph.Task{
					Name:   fmt.Sprintf("spmv-normalize[%d]", iter),
					Kind:   "spmv-normalize",
					Reads:  []taskgraph.Extent{{Buf: p.yStage, Off: 0, Len: p.vecBytes}},
					Writes: writes,
					Cost:   float64(cfg.N),
					Run:    p.normalize,
				})
			}
		}

		if opts.Node == nil {
			opts.Node = p.dram
		}
		var gerr error
		tstats, gerr = g.Run(c, opts)
		return gerr
	})
	if err != nil {
		return nil, tstats, err
	}
	return res, tstats, nil
}
