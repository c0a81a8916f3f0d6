package hotspot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/view"
)

// This file exercises the asymmetric, multi-branch trees of the paper's
// Figure 2: a storage root with several staging children, each with its own
// processor. §V-E: "The system is subject to load imbalance when uneven
// workloads are assigned to different subtrees. Northup's topological tree
// structure is able to naturally support dynamic load balancing when tree
// nodes store information such as on-going tasks at different subtrees."
//
// Chunks are tracked in a root-level work queue (Listing 1's work_queue on
// the root node); each branch runs a worker that pops the next chunk, pulls
// it into its own staging memory, computes on its own processor, and writes
// the result back. Faster branches naturally take more chunks.

// BranchPolicy selects how chunks are assigned to subtrees.
type BranchPolicy int

const (
	// StaticPartition splits chunks evenly across branches up front: the
	// imbalance-prone baseline.
	StaticPartition BranchPolicy = iota
	// DynamicQueue lets branches pop chunks from a shared root queue as
	// they finish: the tree-supported balancing of §V-E.
	DynamicQueue
)

// String names the policy.
func (p BranchPolicy) String() string {
	if p == StaticPartition {
		return "static"
	}
	return "dynamic"
}

// MultiBranchConfig parameterizes a multi-branch stencil run.
type MultiBranchConfig struct {
	N        int
	Seed     int64
	ChunkDim int
	Iters    int
	Policy   BranchPolicy
}

// MultiBranchResult reports the run and the per-branch chunk counts.
type MultiBranchResult struct {
	Temp           []float32
	Stats          core.RunStats
	ChunksByBranch []int
}

// RunMultiBranch executes one out-of-core pass with chunks spread across
// all of the root's staging branches. Each branch must be a memory node
// with a GPU leaf context (the branch node itself may be the leaf).
// Borders are taken from the pass-start state, as in RunNorthup; the result
// is identical to the single-branch blocked execution regardless of policy
// or branch count.
func RunMultiBranch(rt *core.Runtime, cfg MultiBranchConfig) (*MultiBranchResult, error) {
	if cfg.N <= 0 || cfg.ChunkDim <= 0 || cfg.N%cfg.ChunkDim != 0 || cfg.ChunkDim%BlockDim != 0 {
		return nil, fmt.Errorf("hotspot: invalid multibranch config N=%d chunk=%d", cfg.N, cfg.ChunkDim)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 60
	}
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, fmt.Errorf("hotspot: tree root %v is not storage", root)
	}
	branches := root.Children
	if len(branches) < 1 {
		return nil, fmt.Errorf("hotspot: no staging branches under the root")
	}

	n, d := cfg.N, cfg.ChunkDim
	cb := n / d
	chunks := cb * cb
	chunkBytes := int64(d) * int64(d) * 4
	borderBytes := int64(4*d) * 4

	// One pass reads the initial borders and writes no new ones.
	files, err := createGridFiles(rt, n, d, cfg.Seed,
		[5]string{"mb-temp-in", "mb-temp-out", "mb-power", "mb-border", ""})
	if err != nil {
		return nil, err
	}

	res := &MultiBranchResult{ChunksByBranch: make([]int, len(branches))}

	stats, err := rt.Run("hotspot-multibranch", func(c *core.Ctx) error {
		// The root work queue tracks chunk tasks (Listing 1): one queue every
		// branch pops under the dynamic policy, one pre-filled queue per
		// branch under the static one.
		ids := make([]int, chunks)
		for i := range ids {
			ids[i] = i
		}
		var queues []*sched.Deque[int]
		if cfg.Policy == DynamicQueue {
			shared := sched.NewDeque[int]("root-chunks")
			for _, id := range ids {
				shared.PushTail(id)
			}
			queues = []*sched.Deque[int]{shared}
		} else {
			queues = sched.Partition(ids, len(branches), "branch")
		}
		mons := make([]sched.Monitor, len(queues))
		for i, q := range queues {
			mons[i] = q
		}
		defer root.AttachQueues(mons...)()

		joins := make([]*core.Join, len(branches))
		for bi, branch := range branches {
			joins[bi] = c.Spawn(fmt.Sprintf("branch%d", bi), c.Node(), func(sub *core.Ctx) error {
				own := queues[bi%len(queues)]
				for {
					ci, ok := own.StealHead()
					if !ok {
						return nil
					}
					if err := processBranchChunk(sub, branch, cfg, ci, cb,
						chunkBytes, borderBytes, files); err != nil {
						return err
					}
					res.ChunksByBranch[bi]++
				}
			})
		}
		var first error
		for _, j := range joins {
			if err := j.Wait(c); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	if !rt.Phantom() {
		final := make([]float32, n*n)
		if err := files.temp[1].File().Peek(view.F32Bytes(final), 0); err != nil {
			return nil, err
		}
		res.Temp = fromChunkMajor(final, n, d)
	}
	return res, nil
}

// processBranchChunk runs one chunk through one branch: load into the
// branch's staging memory, iterate at its leaf, store back.
func processBranchChunk(sub *core.Ctx, branch *topo.Node, cfg MultiBranchConfig,
	ci, cb int, chunkBytes, borderBytes int64, files gridFiles) error {

	d := cfg.ChunkDim
	// Release whatever was allocated, also when a later allocation fails.
	var bufs []*core.Buffer
	defer func() {
		for _, b := range bufs {
			sub.Release(b)
		}
	}()
	for _, size := range []int64{chunkBytes, chunkBytes, chunkBytes, borderBytes} {
		b, err := sub.AllocAt(branch, size)
		if err != nil {
			return err
		}
		bufs = append(bufs, b)
	}
	tin, tout, pow, bord := bufs[0], bufs[1], bufs[2], bufs[3]
	if err := sub.MoveData(tin, files.temp[0], 0, int64(ci)*chunkBytes, chunkBytes); err != nil {
		return err
	}
	if err := sub.MoveData(pow, files.power, 0, int64(ci)*chunkBytes, chunkBytes); err != nil {
		return err
	}
	if err := sub.MoveData(bord, files.border[0], 0, borderOff(ci, d), borderBytes); err != nil {
		return err
	}
	err := sub.Descend(branch, func(lc *core.Ctx) error {
		return iterateChunk(lc, gpuIterations, cfg.Iters, tin, tout, pow, bord, d, cb, ci)
	})
	if err != nil {
		return err
	}
	return sub.MoveData(files.temp[1], tin, int64(ci)*chunkBytes, 0, chunkBytes)
}
