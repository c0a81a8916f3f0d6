package gemm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/view"
	"repro/internal/workload"
)

// Config parameterizes a GEMM run.
type Config struct {
	// N is the matrix dimension (C = A·B, all N x N).
	N int
	// Seed drives input generation (functional runs only).
	Seed int64
	// ShardDim forces the DRAM blocking size S (the paper's 4k for 16k
	// inputs); 0 derives it from the staging buffer's capacity.
	ShardDim int
	// Depth is the chunk-pipeline depth (in-flight column shards); the
	// default 2 gives double buffering.
	Depth int
	// Sequential disables the chunk pipeline: each column shard is
	// loaded, multiplied and stored strictly in order, with no overlap
	// between I/O and compute. It is the baseline the §III-C multi-stage
	// transfer optimization is measured against.
	Sequential bool
	// StageB keeps the whole B matrix resident at the staging level for
	// the duration of the run, so column shards re-read it from there
	// instead of from storage — the §VI "NVM as per-node slower memory"
	// optimization. It requires the staging level (typically an NVM node,
	// see topo.APUWithNVM) to hold B on top of the shard working set.
	StageB bool
	// Streamed routes the A row-shard loads, the B k-panel loads, and the
	// C stores through the streaming transfer engine (§III-C multi-stage
	// transfers): each move is split into sub-chunks so successive hops of
	// the path overlap. On single-hop moves with adaptive sizing the
	// streamed path degenerates to the monolithic one bit- and
	// time-identically.
	Streamed bool
	// StreamOpts tunes the streamed moves (zero value = adaptive sizing
	// with double-buffered staging rings).
	StreamOpts core.StreamOptions
}

func (cfg *Config) setDefaults() error {
	if cfg.N <= 0 || cfg.N%TileDim != 0 {
		return fmt.Errorf("gemm: N=%d must be a positive multiple of %d", cfg.N, TileDim)
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	return nil
}

// Result carries a run's output and measurements.
type Result struct {
	// C is the row-major product (nil in phantom mode).
	C []float32
	// Stats is the measured run (excludes input preprocessing, as the
	// paper excludes its one-time file reorganization).
	Stats core.RunStats
	// ShardDim is the DRAM blocking size actually used.
	ShardDim int
	// BStaged reports whether B was kept resident at the staging level.
	BStaged bool
}

// chooseShardDim picks the largest S that divides n, is a multiple of
// TileDim, and lets a row shard, depth+1 column shards and depth+1 C blocks
// fit the free bytes (the §III-B capacity-driven blocking decision).
func chooseShardDim(n, depth int, free int64) (int, error) {
	for s := n; s >= TileDim; s -= TileDim {
		if n%s != 0 || s%TileDim != 0 {
			continue
		}
		need := 4 * (int64(s)*int64(n)*int64(depth+2) + int64(s)*int64(s)*int64(depth+1))
		if need <= free*9/10 {
			return s, nil
		}
	}
	return 0, fmt.Errorf("gemm: no shard size fits %d free bytes for N=%d", free, n)
}

// blockEnv is the definition every GEMM driver shares: the staging node,
// the shard geometry, and the A, B and C files on the storage root. A
// C-block task body captures one pointer to it and its block coordinates
// rather than a copy of each value.
type blockEnv struct {
	dram                   *topo.Node
	fa, fb, fc             *core.Buffer
	s, n, cb               int
	shardBytes, blockBytes int64
	functional             bool
	cfg                    Config
}

// newBlockEnv applies cfg's defaults, checks the tree (a storage root with
// a single staging child), picks the shard dimension — after reserving B's
// residency at the staging level when cfg.StageB — and creates the inputs
// on the storage root. B is presharded (the paper's one-time
// preprocessing); in phantom mode only the file extents exist.
func newBlockEnv(rt *core.Runtime, cfg Config) (*blockEnv, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, fmt.Errorf("gemm: tree root %v is not storage", root)
	}
	if len(root.Children) != 1 {
		return nil, fmt.Errorf("gemm: expected a single staging child under the root")
	}
	dram := root.Children[0]

	n := cfg.N
	elems := int64(n) * int64(n)
	freeForShards := dram.Mem.Free()
	if cfg.StageB {
		freeForShards -= elems * 4
		if freeForShards <= 0 {
			return nil, fmt.Errorf("gemm: StageB needs %d bytes at %v on top of the shard working set",
				elems*4, dram)
		}
	}
	s := cfg.ShardDim
	if s == 0 {
		var err error
		if s, err = chooseShardDim(n, cfg.Depth, freeForShards); err != nil {
			return nil, err
		}
	}
	if n%s != 0 {
		return nil, fmt.Errorf("gemm: shard %d does not divide N=%d", s, n)
	}

	var aData, bPre []float32
	functional := !rt.Phantom()
	if functional {
		aData = workload.Dense(n, n, cfg.Seed)
		b := workload.Dense(n, n, cfg.Seed+1)
		bPre = PreshardB(b, n, s)
	}
	fa, err := rt.CreateInput(root, "gemm-A", elems*4, view.F32Bytes(aData))
	if err != nil {
		return nil, err
	}
	fb, err := rt.CreateInput(root, "gemm-B", elems*4, view.F32Bytes(bPre))
	if err != nil {
		return nil, err
	}
	fc, err := rt.CreateInput(root, "gemm-C", elems*4, nil)
	if err != nil {
		return nil, err
	}
	return &blockEnv{dram: dram, fa: fa, fb: fb, fc: fc, s: s, n: n, cb: n / s,
		shardBytes: int64(s) * int64(n) * 4, blockBytes: int64(s) * int64(s) * 4,
		functional: functional, cfg: cfg}, nil
}

// blockOff is the offset of C block (i, j) in the block-major C file.
func (e *blockEnv) blockOff(i, j int) int64 {
	return (int64(i)*int64(e.cb) + int64(j)) * e.blockBytes
}

// result wraps a finished run's stats and, in functional runs, reads C
// back from its block-major file.
func (e *blockEnv) result(stats core.RunStats) (*Result, error) {
	res := &Result{Stats: stats, ShardDim: e.s, BStaged: e.cfg.StageB}
	if e.functional {
		blocks := make([]float32, int64(e.n)*int64(e.n))
		if err := e.fc.File().Peek(view.F32Bytes(blocks), 0); err != nil {
			return nil, err
		}
		res.C = assembleBlockMajor(blocks, e.n, e.s)
	}
	return res, nil
}

// RunNorthup executes out-of-core GEMM on the runtime's tree. The tree root
// must be a storage node holding the inputs; the algorithm follows §IV-A:
// row and column shards move to the staging level, a row shard is reused
// across all column shards of its row of C blocks, and on 3-level trees the
// shard product is further decomposed into k-panels accumulated in GPU
// device memory.
func RunNorthup(rt *core.Runtime, cfg Config) (*Result, error) {
	e, err := newBlockEnv(rt, cfg)
	if err != nil {
		return nil, err
	}
	cfg = e.cfg
	bBytes := int64(e.n) * int64(e.n) * 4
	stats, err := rt.Run("gemm-northup", func(c *core.Ctx) error {
		// §VI staging: read B from storage once and keep it resident at
		// the (large, NVM-class) staging level; all column-shard reloads
		// then stay on-node instead of going back to the root. Residency is
		// a pinned whole-B fetch through the staging cache; with the cache
		// disabled the fetch degrades to a private staged copy with the
		// same bytes and timing.
		colSrc := e.fb
		if cfg.StageB {
			bRes, err := c.MoveDataDownCached(e.dram, e.fb, 0, bBytes)
			if err != nil {
				return err
			}
			defer c.Unpin(bRes)
			colSrc = bRes
		}
		rowShard, err := c.AllocAt(e.dram, e.shardBytes)
		if err != nil {
			return err
		}
		defer c.Release(rowShard)
		colShards := make([]*core.Buffer, e.cb)
		cBlocks := make([]*core.Buffer, e.cb)
		for i := 0; i < e.cb; i++ {
			// Load the row shard once; it is reused by every column shard
			// of this block row (the §IV-A reuse optimization).
			if cfg.Streamed {
				if err := c.MoveDataDownStreamed(rowShard, e.fa, 0, int64(i)*e.shardBytes, e.shardBytes, cfg.StreamOpts); err != nil {
					return err
				}
			} else if err := c.MoveDataDown(rowShard, e.fa, 0, int64(i)*e.shardBytes, e.shardBytes); err != nil {
				return err
			}
			depth := cfg.Depth
			stageRunner := c.Pipeline
			if cfg.Sequential {
				stageRunner = c.Sequential
			}
			// Each stage body runs as a named task span, so a traced run
			// renders the pipeline's load/multiply/store overlap (the
			// paper's Fig. 5 picture) as staggered task lanes.
			err := stageRunner(e.cb, depth,
				func(sub *core.Ctx, j int) error { // load column shard
					return sub.Task("load-shard", e.shardBytes, func(sub *core.Ctx) error {
						if cfg.StageB {
							// B is already resident at the staging level: the
							// reload is an on-node copy out of the pinned image.
							buf, err := sub.AllocAt(e.dram, e.shardBytes)
							if err != nil {
								return err
							}
							colShards[j] = buf
							return sub.MoveData(buf, colSrc, 0, int64(j)*e.shardBytes, e.shardBytes)
						}
						// Without StageB the column shard comes straight from
						// storage; the staging cache turns the cb-1 re-reads of
						// each shard (one per block row) into hits, and the
						// pipeline's deterministic schedule makes j+1 the next
						// load — prefetch it behind this one.
						buf, err := sub.MoveDataDownCached(e.dram, e.fb, int64(j)*e.shardBytes, e.shardBytes)
						if err != nil {
							return err
						}
						colShards[j] = buf
						if j+1 < e.cb {
							sub.Prefetch(e.dram, e.fb, int64(j+1)*e.shardBytes, e.shardBytes)
						}
						return nil
					})
				},
				func(sub *core.Ctx, j int) error { // recursive multiply
					return sub.Task("multiply-shard", e.blockBytes, func(sub *core.Ctx) error {
						buf, err := sub.AllocAt(e.dram, e.blockBytes)
						if err != nil {
							return err
						}
						cBlocks[j] = buf
						err = sub.Descend(e.dram, func(dc *core.Ctx) error {
							return multiplyShard(dc, rowShard, colShards[j], buf, e.s, e.n, e.s, e.functional, cfg)
						})
						if cfg.StageB {
							sub.Release(colShards[j])
						} else {
							sub.Unpin(colShards[j])
						}
						colShards[j] = nil
						return err
					})
				},
				func(sub *core.Ctx, j int) error { // store result block
					return sub.Task("store-block", e.blockBytes, func(sub *core.Ctx) error {
						var err error
						off := e.blockOff(i, j)
						if cfg.Streamed {
							err = sub.MoveDataUpStreamed(e.fc, cBlocks[j], off, 0, e.blockBytes, cfg.StreamOpts)
						} else {
							err = sub.MoveData(e.fc, cBlocks[j], off, 0, e.blockBytes)
						}
						sub.Release(cBlocks[j])
						cBlocks[j] = nil
						return err
					})
				},
			)
			if err != nil {
				// Shards and blocks a failed item left behind.
				for j, buf := range colShards {
					switch {
					case buf == nil:
					case cfg.StageB:
						c.Release(buf)
					default:
						c.Unpin(buf)
					}
					if cBlocks[j] != nil {
						c.Release(cBlocks[j])
					}
				}
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.result(stats)
}

// multiplyShard computes cBuf(n x m) = aBuf(n x k) · bBuf(k x m), with all
// three buffers on the current node. At a leaf it launches the tile kernel;
// otherwise it decomposes along k into panels sized for the child level and
// accumulates there — the recursive step of Listing 3 applied one level
// further down (the discrete-GPU case of §V-C).
func multiplyShard(c *core.Ctx, aBuf, bBuf, cBuf *core.Buffer, n, k, m int, functional bool, cfg Config) error {
	if c.IsLeaf() {
		var cv, av, bv []float32
		if functional {
			cv, av, bv = view.F32(cBuf.Bytes()), view.F32(aBuf.Bytes()), view.F32(bBuf.Bytes())
		}
		kern, groups := TileKernel(cv, av, bv, n, k, m, false)
		_, err := c.LaunchKernel(kern, groups)
		return err
	}
	child := c.Children()[0]
	kp, err := choosePanelDepth(n, k, m, child.Mem.Free())
	if err != nil {
		return err
	}
	// Two panel slots implement the paper's stream overlap at the leaf
	// (§III-C: "overlapping computation and communications (i.e.,
	// OpenCL/CUDA streams)"): while the kernel consumes slot p%2 the PCIe
	// link fills the other.
	// Release whatever was allocated, also when a later allocation fails.
	var bufs []*core.Buffer
	defer func() {
		for _, b := range bufs {
			c.Release(b)
		}
	}()
	aBytes, bBytes := int64(n)*int64(kp)*4, int64(kp)*int64(m)*4
	for _, size := range []int64{aBytes, bBytes, aBytes, bBytes, int64(n) * int64(m) * 4} {
		b, err := c.AllocAt(child, size)
		if err != nil {
			return err
		}
		bufs = append(bufs, b)
	}
	gA := [2]*core.Buffer{bufs[0], bufs[2]}
	gB := [2]*core.Buffer{bufs[1], bufs[3]}
	gC := bufs[4]
	panels := k / kp
	err = c.Pipeline(panels, 2,
		func(sub *core.Ctx, p int) error { // stream the panel pair down
			s := p % 2
			// A panel: n rows of kp floats, strided by the row length k.
			if err := sub.MoveData2D(gA[s], aBuf, 0, int64(kp)*4,
				int64(p)*int64(kp)*4, int64(k)*4, n, kp*4); err != nil {
				return err
			}
			// B panel: kp full rows, contiguous — the streamed path
			// sub-chunks it so the PCIe hop overlaps itself across
			// sub-chunks (and degenerates to one chunk when not worth it).
			if cfg.Streamed {
				return sub.MoveDataDownStreamed(gB[s], bBuf, 0,
					int64(p)*int64(kp)*int64(m)*4, int64(kp)*int64(m)*4, cfg.StreamOpts)
			}
			return sub.MoveData(gB[s], bBuf, 0,
				int64(p)*int64(kp)*int64(m)*4, int64(kp)*int64(m)*4)
		},
		func(sub *core.Ctx, p int) error { // accumulate on the GPU
			s := p % 2
			accumulate := p > 0
			return sub.Descend(child, func(lc *core.Ctx) error {
				if !lc.IsLeaf() {
					return fmt.Errorf("gemm: trees deeper than 3 levels need recursive panels")
				}
				var cv, av, bv []float32
				if functional {
					cv, av, bv = view.F32(gC.Bytes()), view.F32(gA[s].Bytes()), view.F32(gB[s].Bytes())
				}
				kern, groups := TileKernel(cv, av, bv, n, kp, m, accumulate)
				_, kerr := lc.LaunchKernel(kern, groups)
				return kerr
			})
		},
	)
	if err != nil {
		return err
	}
	if cfg.Streamed {
		return c.MoveDataUpStreamed(cBuf, gC, 0, 0, int64(n)*int64(m)*4, cfg.StreamOpts)
	}
	return c.MoveDataUp(cBuf, gC, 0, 0, int64(n)*int64(m)*4)
}

// choosePanelDepth picks the largest k-panel depth (multiple of KTile,
// dividing k) whose double-buffered panel slots plus the C accumulator fit
// the child's free bytes.
func choosePanelDepth(n, k, m int, free int64) (int, error) {
	for kp := k; kp >= KTile; kp -= KTile {
		if k%kp != 0 {
			continue
		}
		need := 4 * (2*(int64(n)*int64(kp)+int64(kp)*int64(m)) + int64(n)*int64(m))
		if need <= free*9/10 {
			return kp, nil
		}
	}
	return 0, fmt.Errorf("gemm: no k-panel fits %d free bytes (n=%d k=%d m=%d)", free, n, k, m)
}

// assembleBlockMajor converts the block-major C file layout (block (i,j) of
// s x s stored contiguously) back to a row-major n x n matrix.
func assembleBlockMajor(blocks []float32, n, s int) []float32 {
	cb := n / s
	out := make([]float32, n*n)
	for bi := 0; bi < cb; bi++ {
		for bj := 0; bj < cb; bj++ {
			base := (bi*cb + bj) * s * s
			for r := 0; r < s; r++ {
				row := (bi*s + r) * n
				copy(out[row+bj*s:row+(bj+1)*s], blocks[base+r*s:base+(r+1)*s])
			}
		}
	}
	return out
}

// RunInMemory executes the paper's in-memory baseline: inputs already
// resident in a DRAM-only "tree" large enough for the whole working set,
// one kernel over the full matrices, no I/O in the measured region (§V-B).
func RunInMemory(rt *core.Runtime, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rootNode := rt.Tree().Root()
	if rootNode.Store != nil {
		return nil, fmt.Errorf("gemm: in-memory baseline needs a DRAM root (got %v)", rootNode)
	}
	n := cfg.N
	elems := int64(n) * int64(n)
	functional := !rt.Phantom()

	var res *Result
	stats, err := rt.Run("gemm-inmemory", func(c *core.Ctx) error {
		a, err := c.Alloc(elems * 4)
		if err != nil {
			return err
		}
		b, err := c.Alloc(elems * 4)
		if err != nil {
			return err
		}
		cc, err := c.Alloc(elems * 4)
		if err != nil {
			return err
		}
		var cv, av, bv []float32
		if functional {
			// Inputs appear in memory outside the measured region.
			av, bv, cv = view.F32(a.Bytes()), view.F32(b.Bytes()), view.F32(cc.Bytes())
			copy(av, workload.Dense(n, n, cfg.Seed))
			copy(bv, workload.Dense(n, n, cfg.Seed+1))
		}
		kern, groups := TileKernel(cv, av, bv, n, n, n, false)
		if _, err := c.LaunchKernel(kern, groups); err != nil {
			return err
		}
		res = &Result{ShardDim: n}
		if functional {
			res.C = append([]float32(nil), cv...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
