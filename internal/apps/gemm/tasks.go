package gemm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// RunTasks executes out-of-core GEMM as an extent-declared task graph: one
// task per C block, reading its A row shard and B column shard from storage
// and writing its block of C. The blocks are independent (every write extent
// is disjoint), so the whole cb x cb grid is a parallel graph and the
// scheduler's placement order decides how often each shard crosses the
// storage edge. With affinity on, the residency scorer walks the grid in a
// shard-reuse order (the generalization of §IV-A's hand-wired row-shard
// reuse); with affinity off, locality-blind stealing reloads whatever the
// deque order happens to evict first.
func RunTasks(rt *core.Runtime, cfg Config, opts taskgraph.Options) (*Result, *taskgraph.Stats, error) {
	// The graph streams B from storage like every other input; it never
	// keeps B resident, so no staging room is reserved for it.
	cfg.StageB = false
	env, err := newBlockEnv(rt, cfg)
	if err != nil {
		return nil, nil, err
	}
	s, n, cb := env.s, env.n, env.cb

	// One task per C block. A row shards live at row-major offsets of the A
	// file; B column shards at shard-major offsets of the presharded B file.
	g := taskgraph.New()
	for i := 0; i < cb; i++ {
		for j := 0; j < cb; j++ {
			g.Add(&taskgraph.Task{
				Name: fmt.Sprintf("gemm-block[%d,%d]", i, j),
				Kind: "gemm-block",
				Reads: []taskgraph.Extent{
					{Buf: env.fa, Off: int64(i) * env.shardBytes, Len: env.shardBytes},
					{Buf: env.fb, Off: int64(j) * env.shardBytes, Len: env.shardBytes},
				},
				Writes: []taskgraph.Extent{
					{Buf: env.fc, Off: env.blockOff(i, j), Len: env.blockBytes},
				},
				Cost: 2 * float64(s) * float64(s) * float64(n),
				Run:  env.task(i, j),
			})
		}
	}

	var tstats *taskgraph.Stats
	stats, err := rt.Run("gemm-tasks", func(c *core.Ctx) error {
		if opts.Node == nil {
			opts.Node = env.dram
		}
		var gerr error
		tstats, gerr = g.Run(c, opts)
		return gerr
	})
	if err != nil {
		return nil, tstats, err
	}
	res, err := env.result(stats)
	return res, tstats, err
}

// task returns the body of C block (i, j): stage its A row shard and B
// column shard through the cache, multiply at the staging level, and write
// the block back.
func (e *blockEnv) task(i, j int) func(*core.Ctx) error {
	bi, bj := int32(i), int32(j)
	return func(sub *core.Ctx) error { return e.run(sub, int(bi), int(bj)) }
}

func (e *blockEnv) run(sub *core.Ctx, i, j int) error {
	aShard, err := sub.MoveDataDownCached(e.dram, e.fa, int64(i)*e.shardBytes, e.shardBytes)
	if err != nil {
		return err
	}
	defer sub.Unpin(aShard)
	bShard, err := sub.MoveDataDownCached(e.dram, e.fb, int64(j)*e.shardBytes, e.shardBytes)
	if err != nil {
		return err
	}
	defer sub.Unpin(bShard)
	blk, err := sub.AllocAt(e.dram, e.blockBytes)
	if err != nil {
		return err
	}
	defer sub.Release(blk)
	if err := sub.Descend(e.dram, func(dc *core.Ctx) error {
		return multiplyShard(dc, aShard, bShard, blk, e.s, e.n, e.s, e.functional, e.cfg)
	}); err != nil {
		return err
	}
	return sub.MoveData(e.fc, blk, e.blockOff(i, j), 0, e.blockBytes)
}
