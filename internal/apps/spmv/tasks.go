package spmv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/view"
	"repro/internal/workload"
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
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, nil, fmt.Errorf("spmv: tree root %v is not storage", root)
	}
	dram := root.Children[0]
	n := cfg.N
	functional := !rt.Phantom()

	m, rowPtrHost, err := hostMatrix(cfg, functional)
	if err != nil {
		return nil, nil, err
	}
	nnz := int64(rowPtrHost[n])

	var xHost []float32
	if functional {
		xHost = workload.Vector(n, cfg.Seed+1)
	}
	var colBytes, valBytes []byte
	if functional {
		colBytes, valBytes = view.I32Bytes(m.ColIdx), view.F32Bytes(m.Val)
	}
	fRow, err := rt.CreateInput(root, "sp-rowptr", int64(n+1)*4, view.I32Bytes(rowPtrHost))
	if err != nil {
		return nil, nil, err
	}
	fCol, err := rt.CreateInput(root, "sp-colidx", nnz*4, colBytes)
	if err != nil {
		return nil, nil, err
	}
	fVal, err := rt.CreateInput(root, "sp-val", nnz*4, valBytes)
	if err != nil {
		return nil, nil, err
	}
	fX, err := rt.CreateInput(root, "sp-x", int64(n)*4, view.F32Bytes(xHost))
	if err != nil {
		return nil, nil, err
	}
	fY, err := rt.CreateInput(root, "sp-y", int64(n)*4, nil)
	if err != nil {
		return nil, nil, err
	}

	workers := opts.Workers
	if workers < 1 {
		workers = taskgraph.DefaultWorkers
	}

	// Shard budget as in RunNorthup, but sized for the worker pool: each
	// in-flight task holds one shard's extents pinned at the staging level.
	vecBytes := int64(n) * 4
	budget := int64(1) << 62
	for node := dram; node != nil; node = childOf(node) {
		free := node.Mem.Free()
		resident := vecBytes
		if node == dram {
			resident += vecBytes
		}
		b := (free*9/10 - resident) / int64(workers+1)
		if b < budget {
			budget = b
		}
	}
	if budget <= 0 {
		return nil, nil, fmt.Errorf("spmv: vectors alone exceed the hierarchy's capacity")
	}

	var shards []shardRange
	splits := 0
	var expand func(r0, r1 int) error
	expand = func(r0, r1 int) error {
		if shardBytes(rowPtrHost, r0, r1) <= budget {
			shards = append(shards, shardRange{r0, r1})
			return nil
		}
		if r1-r0 <= 1 {
			return fmt.Errorf("spmv: row %d alone (%d nnz) exceeds the level budget %d",
				r0, rowPtrHost[r0+1]-rowPtrHost[r0], budget)
		}
		splits++
		mid := splitByNNZ(rowPtrHost, r0, r1)
		if err := expand(r0, mid); err != nil {
			return err
		}
		return expand(mid, r1)
	}
	for c := 0; c < cfg.Chunks; c++ {
		r0 := n * c / cfg.Chunks
		r1 := n * (c + 1) / cfg.Chunks
		if r0 == r1 {
			continue
		}
		if err := expand(r0, r1); err != nil {
			return nil, nil, err
		}
	}

	var yView []float32
	var tstats *taskgraph.Stats
	stats, err := rt.Run("spmv-tasks", func(c *core.Ctx) error {
		// Resident vectors, exactly as in RunNorthup: x on every level of the
		// leaf path, y at the staging level.
		xStage, err := c.AllocAt(dram, vecBytes)
		if err != nil {
			return err
		}
		defer c.Release(xStage)
		if err := c.MoveDataDown(xStage, fX, 0, 0, vecBytes); err != nil {
			return err
		}
		yStage, err := c.AllocAt(dram, vecBytes)
		if err != nil {
			return err
		}
		defer c.Release(yStage)
		xLeafBuf := xStage
		leaf := dram
		for !leaf.IsLeaf() {
			child := leaf.Children[0]
			xChild, err := c.AllocAt(child, vecBytes)
			if err != nil {
				return err
			}
			defer c.Release(xChild)
			if err := c.MoveData(xChild, xLeafBuf, 0, 0, vecBytes); err != nil {
				return err
			}
			xLeafBuf = xChild
			leaf = child
		}
		if functional {
			yView = view.F32(yStage.Bytes())
		}

		// The graph: iterations of parallel shard tasks, serialized through
		// the normalize task's extent overlaps (it reads the whole of y and
		// rewrites x, so every next-iteration shard waits on it and it waits
		// on every shard of its own iteration).
		g := taskgraph.New()
		for iter := 0; iter < cfg.Iters; iter++ {
			for _, sh := range shards {
				sh := sh
				rows := sh.r1 - sh.r0
				shardNNZ := int64(rowPtrHost[sh.r1] - rowPtrHost[sh.r0])
				off := int64(rowPtrHost[sh.r0]) * 4
				g.Add(&taskgraph.Task{
					Name: fmt.Sprintf("spmv-shard[%d:%d]", sh.r0, sh.r1),
					Kind: "spmv-shard",
					Reads: []taskgraph.Extent{
						{Buf: fRow, Off: int64(sh.r0) * 4, Len: int64(rows+1) * 4},
						{Buf: fCol, Off: off, Len: shardNNZ * 4},
						{Buf: fVal, Off: off, Len: shardNNZ * 4},
						{Buf: xLeafBuf, Off: 0, Len: vecBytes},
					},
					Writes: []taskgraph.Extent{
						{Buf: yStage, Off: int64(sh.r0) * 4, Len: int64(rows) * 4},
					},
					Cost: float64(shardNNZ),
					Run: func(sub *core.Ctx) error {
						rowBuf, err := sub.MoveDataDownCached(dram, fRow, int64(sh.r0)*4, int64(rows+1)*4)
						if err != nil {
							return err
						}
						defer sub.Unpin(rowBuf)
						colBuf, err := sub.MoveDataDownCached(dram, fCol, off, shardNNZ*4)
						if err != nil {
							return err
						}
						defer sub.Unpin(colBuf)
						valBuf, err := sub.MoveDataDownCached(dram, fVal, off, shardNNZ*4)
						if err != nil {
							return err
						}
						defer sub.Unpin(valBuf)
						return sub.Descend(dram, func(dc *core.Ctx) error {
							return computeShard(dc, cfg, sh, rowBuf, colBuf, valBuf,
								xLeafBuf, yStage, yView, rowPtrHost, functional)
						})
					},
				})
			}
			if iter < cfg.Iters-1 {
				writes := []taskgraph.Extent{{Buf: xStage, Off: 0, Len: vecBytes}}
				if xLeafBuf != xStage {
					writes = append(writes, taskgraph.Extent{Buf: xLeafBuf, Off: 0, Len: vecBytes})
				}
				g.Add(&taskgraph.Task{
					Name:   fmt.Sprintf("spmv-normalize[%d]", iter),
					Kind:   "spmv-normalize",
					Reads:  []taskgraph.Extent{{Buf: yStage, Off: 0, Len: vecBytes}},
					Writes: writes,
					Cost:   float64(n),
					Run: func(sub *core.Ctx) error {
						if _, err := sub.RunCPUParallel(4*float64(n), 8*float64(n), func() {
							if !functional {
								return
							}
							xv := view.F32(xStage.Bytes())
							norm := float32(0)
							for _, v := range yView {
								if v < 0 {
									v = -v
								}
								if v > norm {
									norm = v
								}
							}
							if norm == 0 {
								norm = 1
							}
							for i, v := range yView {
								xv[i] = v / norm
							}
						}); err != nil {
							return err
						}
						if xLeafBuf != xStage {
							return sub.MoveData(xLeafBuf, xStage, 0, 0, vecBytes)
						}
						return nil
					},
				})
			}
		}

		if opts.Node == nil {
			opts.Node = dram
		}
		var gerr error
		tstats, gerr = g.Run(c, opts)
		if gerr != nil {
			return gerr
		}
		return c.MoveData(fY, yStage, 0, 0, vecBytes)
	})
	if err != nil {
		return nil, tstats, err
	}

	res := &Result{Stats: stats, Shards: len(shards), Splits: splits}
	if functional {
		y := make([]float32, n)
		if err := fY.File().Peek(view.F32Bytes(y), 0); err != nil {
			return nil, tstats, err
		}
		res.Y = y
	}
	return res, tstats, nil
}
