package gemm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topo"
	"repro/internal/view"
	"repro/internal/workload"
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
	if err := cfg.setDefaults(); err != nil {
		return nil, nil, err
	}
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, nil, fmt.Errorf("gemm: tree root %v is not storage", root)
	}
	if len(root.Children) != 1 {
		return nil, nil, fmt.Errorf("gemm: expected a single staging child under the root")
	}
	dram := root.Children[0]

	n := cfg.N
	elems := int64(n) * int64(n)
	s := cfg.ShardDim
	if s == 0 {
		var err error
		if s, err = chooseShardDim(n, cfg.Depth, dram.Mem.Free()); err != nil {
			return nil, nil, err
		}
	}
	if n%s != 0 {
		return nil, nil, fmt.Errorf("gemm: shard %d does not divide N=%d", s, n)
	}
	cb := n / s

	var aData, bPre []float32
	functional := !rt.Phantom()
	if functional {
		aData = workload.Dense(n, n, cfg.Seed)
		b := workload.Dense(n, n, cfg.Seed+1)
		bPre = PreshardB(b, n, s)
	}
	fa, err := rt.CreateInput(root, "gemm-A", elems*4, view.F32Bytes(aData))
	if err != nil {
		return nil, nil, err
	}
	fb, err := rt.CreateInput(root, "gemm-B", elems*4, view.F32Bytes(bPre))
	if err != nil {
		return nil, nil, err
	}
	fc, err := rt.CreateInput(root, "gemm-C", elems*4, nil)
	if err != nil {
		return nil, nil, err
	}

	env := &blockEnv{dram: dram, fa: fa, fb: fb, fc: fc, s: s, n: n, cb: cb,
		shardBytes: int64(s) * int64(n) * 4, blockBytes: int64(s) * int64(s) * 4,
		functional: functional, cfg: cfg}

	// One task per C block. A row shards live at row-major offsets of the A
	// file; B column shards at shard-major offsets of the presharded B file.
	g := taskgraph.New()
	for i := 0; i < cb; i++ {
		for j := 0; j < cb; j++ {
			g.Add(&taskgraph.Task{
				Name: fmt.Sprintf("gemm-block[%d,%d]", i, j),
				Kind: "gemm-block",
				Reads: []taskgraph.Extent{
					{Buf: fa, Off: int64(i) * env.shardBytes, Len: env.shardBytes},
					{Buf: fb, Off: int64(j) * env.shardBytes, Len: env.shardBytes},
				},
				Writes: []taskgraph.Extent{
					{Buf: fc, Off: env.blockOff(i, j), Len: env.blockBytes},
				},
				Cost: 2 * float64(s) * float64(s) * float64(n),
				Run:  env.task(i, j),
			})
		}
	}

	var tstats *taskgraph.Stats
	stats, err := rt.Run("gemm-tasks", func(c *core.Ctx) error {
		if opts.Node == nil {
			opts.Node = dram
		}
		var gerr error
		tstats, gerr = g.Run(c, opts)
		return gerr
	})
	if err != nil {
		return nil, tstats, err
	}

	res := &Result{Stats: stats, ShardDim: s}
	if functional {
		res.C = assembleBlockMajor(fcPeek(rt, fc, elems), n, s)
	}
	return res, tstats, nil
}

// blockEnv is the state every C-block task shares, so a task body captures
// one pointer and its block coordinates rather than a copy of each value.
type blockEnv struct {
	dram                   *topo.Node
	fa, fb, fc             *core.Buffer
	s, n, cb               int
	shardBytes, blockBytes int64
	functional             bool
	cfg                    Config
}

// blockOff is the offset of C block (i, j) in the block-major C file.
func (e *blockEnv) blockOff(i, j int) int64 {
	return (int64(i)*int64(e.cb) + int64(j)) * e.blockBytes
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
