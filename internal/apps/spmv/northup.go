package spmv

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/topo"
	"repro/internal/view"
	"repro/internal/workload"
)

// Config parameterizes a SpMV run.
type Config struct {
	// N is the matrix dimension (rows = cols); the paper uses 16M rows.
	N int
	// AvgNNZ is the average non-zeros per row of the generated input.
	AvgNNZ int
	// Kind selects the sparse structure (uniform / power-law / banded).
	Kind workload.SparseKind
	Seed int64
	// Chunks is the initial even division of rows (the paper divides the
	// matrix "into four chunks in row-dimension"). Shards that do not fit
	// the next level are split further by the recursion.
	Chunks int
	// Depth is the shard pipeline depth (default 2).
	Depth int
	// Iters repeats the multiply as a power iteration: after each pass,
	// x <- y / ||y||_inf (normalized on the CPU) and the matrix streams
	// from storage again. Default 1 (a single SpMV).
	Iters int
	// Matrix supplies an explicit input (e.g. parsed from a University of
	// Florida collection file via workload.ParseMatrixMarket) instead of
	// the synthetic generator. Requires a square matrix and a functional
	// (non-phantom) runtime; N, AvgNNZ, Kind and Seed are then ignored for
	// matrix generation.
	Matrix *workload.CSR
}

func (cfg *Config) setDefaults() error {
	if cfg.Matrix != nil {
		if cfg.Matrix.NRows != cfg.Matrix.NCols {
			return fmt.Errorf("spmv: provided matrix is %dx%d; square required",
				cfg.Matrix.NRows, cfg.Matrix.NCols)
		}
		cfg.N = cfg.Matrix.NRows
	}
	if cfg.N <= 0 {
		return fmt.Errorf("spmv: N=%d invalid", cfg.N)
	}
	if cfg.AvgNNZ <= 0 {
		cfg.AvgNNZ = 16
	}
	if cfg.Chunks <= 0 {
		cfg.Chunks = 4
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	return nil
}

// hostMatrix returns the host-side input: the matrix itself in functional
// runs, and the row structure every run plans from.
func hostMatrix(cfg Config, functional bool) (*workload.CSR, []int32, error) {
	switch {
	case cfg.Matrix != nil:
		if !functional {
			return nil, nil, fmt.Errorf("spmv: provided matrices need a functional runtime")
		}
		return cfg.Matrix, cfg.Matrix.RowPtr, nil
	case functional:
		if m := workload.Sparse(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed); m != nil {
			return m, m.RowPtr, nil
		}
	default:
		if rowPtr := workload.SparseRowPtr(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed); rowPtr != nil {
			return nil, rowPtr, nil
		}
	}
	return nil, nil, fmt.Errorf("spmv: N=%d AvgNNZ=%d has more non-zeros than the int32 row_ptr limit of %d",
		cfg.N, cfg.AvgNNZ, math.MaxInt32)
}

// Result carries a run's output and measurements.
type Result struct {
	// Y is the result vector (nil in phantom mode).
	Y []float32
	// Stats is the measured run.
	Stats core.RunStats
	// Shards is the number of leaf shards actually processed.
	Shards int
	// Splits counts recursive shard subdivisions forced by capacity — the
	// §IV-C "unique advantage" of the recursive scheme on skewed inputs.
	Splits int
}

// shardRange is a half-open row range.
type shardRange struct{ r0, r1 int }

// shardBytes returns the storage footprint of rows [r0, r1): the row_ptr
// slice plus column indices and values.
func shardBytes(rowPtr []int32, r0, r1 int) int64 {
	nnz := int64(rowPtr[r1] - rowPtr[r0])
	return int64(r1-r0+1)*4 + nnz*8
}

// splitByNNZ returns the row that most evenly halves the range's non-zeros
// (computed from row_ptr, as §IV-C prescribes).
func splitByNNZ(rowPtr []int32, r0, r1 int) int {
	target := rowPtr[r0] + (rowPtr[r1]-rowPtr[r0])/2
	lo, hi := r0+1, r1-1
	for lo < hi {
		mid := (lo + hi) / 2
		if rowPtr[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Kernel builds the CSR-Adaptive dispatch for one shard: one workgroup per
// row block, with the roofline cost averaged over blocks. Functional
// operands may be nil (phantom mode).
func Kernel(blocks []RowBlock, rowPtr []int32, col []int32, val, x, y []float32) gpu.Kernel {
	var flops, bytes float64
	for _, b := range blocks {
		f, by := BlockCost(b, rowPtr)
		flops += f
		bytes += by
	}
	n := float64(len(blocks))
	if n == 0 {
		n = 1
	}
	kern := gpu.Kernel{
		Name:          "csr-adaptive",
		FlopsPerGroup: flops / n,
		BytesPerGroup: bytes / n,
		LocalBytes:    NNZPerGroup * 8,
	}
	if val != nil {
		kern.Run = func(g int) { ExecBlock(blocks[g], rowPtr, col, val, x, y) }
	}
	return kern
}

// problem is one out-of-core SpMV run as both drivers define it: the
// inputs on the storage root, the shard plan, the resident vectors, shard
// staging, the power-iteration normalize step and the result read-back.
// RunNorthup and RunTasks differ only in how they dispatch its shards.
type problem struct {
	cfg        Config
	rt         *core.Runtime
	dram       *topo.Node
	functional bool
	// rowPtr is the host row structure every run plans from.
	rowPtr []int32
	// Input files on the storage root: the matrix, x and the result y.
	fRow, fCol, fVal, fX, fY *core.Buffer
	shards                   []shardRange
	splits                   int
	vecBytes                 int64
	// The resident vectors, set by run before its body starts: x on every
	// level of the leaf path (xLeaf is the deepest copy), y at the staging
	// level.
	xStage, xLeaf, yStage *core.Buffer
	yView                 []float32
}

// newProblem creates the inputs on the storage root and plans the shards:
// each shard's extents must fit the tightest non-root level after the
// resident vectors, shared among inFlight concurrently staged shards. cfg
// must already have its defaults.
func newProblem(rt *core.Runtime, cfg Config, inFlight int) (*problem, error) {
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, fmt.Errorf("spmv: tree root %v is not storage", root)
	}
	p := &problem{cfg: cfg, rt: rt, dram: root.Children[0], functional: !rt.Phantom()}
	n := cfg.N

	// Host-side planning data: the row structure exists even in phantom
	// mode (64 MiB at 16M rows); columns and values only functionally.
	m, rowPtr, err := hostMatrix(cfg, p.functional)
	if err != nil {
		return nil, err
	}
	p.rowPtr = rowPtr
	nnz := int64(rowPtr[n])

	var xHost []float32
	var colBytes, valBytes []byte
	if p.functional {
		xHost = workload.Vector(n, cfg.Seed+1)
		colBytes, valBytes = view.I32Bytes(m.ColIdx), view.F32Bytes(m.Val)
	}
	if p.fRow, err = rt.CreateInput(root, "sp-rowptr", int64(n+1)*4, view.I32Bytes(p.rowPtr)); err != nil {
		return nil, err
	}
	if p.fCol, err = rt.CreateInput(root, "sp-colidx", nnz*4, colBytes); err != nil {
		return nil, err
	}
	if p.fVal, err = rt.CreateInput(root, "sp-val", nnz*4, valBytes); err != nil {
		return nil, err
	}
	if p.fX, err = rt.CreateInput(root, "sp-x", int64(n)*4, view.F32Bytes(xHost)); err != nil {
		return nil, err
	}
	if p.fY, err = rt.CreateInput(root, "sp-y", int64(n)*4, nil); err != nil {
		return nil, err
	}

	p.vecBytes = int64(n) * 4
	budget := int64(1) << 62
	for node := p.dram; node != nil; node = childOf(node) {
		free := node.Mem.Free()
		resident := p.vecBytes // x everywhere on the path
		if node == p.dram {
			resident += p.vecBytes // y stays at the staging level
		}
		b := (free*9/10 - resident) / int64(inFlight)
		if b < budget {
			budget = b
		}
	}
	if budget <= 0 {
		return nil, fmt.Errorf("spmv: vectors alone exceed the hierarchy's capacity")
	}

	// The recursion's planning pass: split ranges by nnz until they fit.
	var expand func(r0, r1 int) error
	expand = func(r0, r1 int) error {
		if shardBytes(p.rowPtr, r0, r1) <= budget {
			p.shards = append(p.shards, shardRange{r0, r1})
			return nil
		}
		if r1-r0 <= 1 {
			return fmt.Errorf("spmv: row %d alone (%d nnz) exceeds the level budget %d",
				r0, p.rowPtr[r0+1]-p.rowPtr[r0], budget)
		}
		p.splits++
		mid := splitByNNZ(p.rowPtr, r0, r1)
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
			return nil, err
		}
	}
	return p, nil
}

// extents returns the storage extents of shard sh in the row_ptr file and
// in the col_id and data files (which share offsets).
func (p *problem) extents(sh shardRange) (rowOff, rowLen, off, nnzLen int64) {
	off = int64(p.rowPtr[sh.r0]) * 4
	nnzLen = int64(p.rowPtr[sh.r1]-p.rowPtr[sh.r0]) * 4
	return int64(sh.r0) * 4, int64(sh.r1-sh.r0+1) * 4, off, nnzLen
}

// staged is one shard's matrix extents, pinned at the staging level.
type staged struct{ row, col, val *core.Buffer }

// stage fetches shard sh's matrix extents to the staging level. They are
// read-only and re-read on every power iteration, so they go through the
// staging cache: iteration 1 streams from storage, later iterations hit
// resident shards (capacity permitting). On failure it unpins whatever it
// had fetched.
func (p *problem) stage(sub *core.Ctx, sh shardRange) (s staged, err error) {
	rowOff, rowLen, off, nnzLen := p.extents(sh)
	if s.row, err = sub.MoveDataDownCached(p.dram, p.fRow, rowOff, rowLen); err != nil {
		return staged{}, err
	}
	if s.col, err = sub.MoveDataDownCached(p.dram, p.fCol, off, nnzLen); err != nil {
		sub.Unpin(s.row)
		return staged{}, err
	}
	if s.val, err = sub.MoveDataDownCached(p.dram, p.fVal, off, nnzLen); err != nil {
		sub.Unpin(s.col)
		sub.Unpin(s.row)
		return staged{}, err
	}
	return s, nil
}

// prefetch hints shard sh's matrix extents to the staging cache.
func (p *problem) prefetch(sub *core.Ctx, sh shardRange) {
	rowOff, rowLen, off, nnzLen := p.extents(sh)
	sub.Prefetch(p.dram, p.fRow, rowOff, rowLen)
	sub.Prefetch(p.dram, p.fCol, off, nnzLen)
	sub.Prefetch(p.dram, p.fVal, off, nnzLen)
}

// compute bins shard sh on the CPU and runs its kernels at the leaf.
func (p *problem) compute(sub *core.Ctx, sh shardRange, s staged) error {
	return sub.Descend(p.dram, func(dc *core.Ctx) error {
		return computeShard(dc, p.cfg, sh, s.row, s.col, s.val,
			p.xLeaf, p.yStage, p.yView, p.rowPtr, p.functional)
	})
}

// normalize is the power-iteration step: x <- y / ||y||_inf on the CPU,
// then the refresh of the leaf-resident copy of x.
func (p *problem) normalize(c *core.Ctx) error {
	n := p.cfg.N
	if _, err := c.RunCPUParallel(4*float64(n), 8*float64(n), func() {
		if !p.functional {
			return
		}
		xv := view.F32(p.xStage.Bytes())
		norm := float32(0)
		for _, v := range p.yView {
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
		for i, v := range p.yView {
			xv[i] = v / norm
		}
	}); err != nil {
		return err
	}
	// The staging copy changed; charge its propagation to the deeper
	// levels (3-level trees keep x in device memory). On 2-level trees the
	// leaf reads xStage directly.
	if p.xLeaf != p.xStage {
		return c.MoveData(p.xLeaf, p.xStage, 0, 0, p.vecBytes)
	}
	return nil
}

// run executes body as the runtime's root task between the vector moves:
// x down to every level of the leaf path and y allocated at the staging
// level before it, y back to storage (one sequential write) after it.
// It then reads y back in functional runs.
func (p *problem) run(name string, body func(c *core.Ctx) error) (*Result, error) {
	stats, err := p.rt.Run(name, func(c *core.Ctx) error {
		xStage, err := c.AllocAt(p.dram, p.vecBytes)
		if err != nil {
			return err
		}
		defer c.Release(xStage)
		if err := c.MoveDataDown(xStage, p.fX, 0, 0, p.vecBytes); err != nil {
			return err
		}
		yStage, err := c.AllocAt(p.dram, p.vecBytes)
		if err != nil {
			return err
		}
		defer c.Release(yStage)
		xLeaf := xStage
		for leaf := p.dram; !leaf.IsLeaf(); {
			child := leaf.Children[0]
			xChild, err := c.AllocAt(child, p.vecBytes)
			if err != nil {
				return err
			}
			defer c.Release(xChild)
			if err := c.MoveData(xChild, xLeaf, 0, 0, p.vecBytes); err != nil {
				return err
			}
			xLeaf = xChild
			leaf = child
		}
		p.xStage, p.xLeaf, p.yStage = xStage, xLeaf, yStage
		if p.functional {
			p.yView = view.F32(yStage.Bytes())
		}
		if err := body(c); err != nil {
			return err
		}
		return c.MoveData(p.fY, yStage, 0, 0, p.vecBytes)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: stats, Shards: len(p.shards), Splits: p.splits}
	if p.functional {
		y := make([]float32, p.cfg.N)
		if err := p.fY.File().Peek(view.F32Bytes(y), 0); err != nil {
			return nil, err
		}
		res.Y = y
	}
	return res, nil
}

// RunNorthup executes out-of-core SpMV per §IV-C: row_ptr, col_id and data
// live on the storage root; the dense vectors are resident at the fastest
// feasible level (the paper's requirement that "the fastest memory has to
// be big enough to hold the vector"); shards of rows stream through the
// hierarchy, splitting recursively when a shard's non-zeros exceed the next
// level's capacity.
func RunNorthup(rt *core.Runtime, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	p, err := newProblem(rt, cfg, cfg.Depth+1)
	if err != nil {
		return nil, err
	}
	slots := make([]staged, len(p.shards))
	return p.run("spmv-northup", func(c *core.Ctx) error {
		for iter := 0; iter < cfg.Iters; iter++ {
			err := c.Pipeline(len(p.shards), cfg.Depth,
				func(sub *core.Ctx, si int) error { // load shard from storage
					s, err := p.stage(sub, p.shards[si])
					if err != nil {
						return err
					}
					slots[si] = s
					// The pipeline schedule is deterministic: shard si+1 loads
					// next. Hint its extents behind this shard's fetches.
					if si+1 < len(p.shards) {
						p.prefetch(sub, p.shards[si+1])
					}
					return nil
				},
				func(sub *core.Ctx, si int) error { // bin on CPU, compute at leaf
					s := slots[si]
					err := p.compute(sub, p.shards[si], s)
					sub.Unpin(s.row)
					sub.Unpin(s.col)
					sub.Unpin(s.val)
					slots[si] = staged{}
					return err
				},
			)
			if err != nil {
				// Shards loaded but never computed are still pinned.
				for _, s := range slots {
					if s.row != nil {
						c.Unpin(s.row)
						c.Unpin(s.col)
						c.Unpin(s.val)
					}
				}
				return err
			}
			if iter < cfg.Iters-1 {
				if err := p.normalize(c); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// childOf returns a node's only child, or nil at a leaf.
func childOf(n *topo.Node) *topo.Node {
	if n.IsLeaf() {
		return nil
	}
	return n.Children[0]
}

// computeShard bins the shard's rows on the CPU, then launches the
// CSR-Adaptive kernels on the leaf GPU, descending one more level first on
// 3-level trees (shard data to GPU device memory, y segment back up).
func computeShard(dc *core.Ctx, cfg Config, sh shardRange,
	rowBuf, colBuf, valBuf, xLeaf, yStage *core.Buffer,
	yView []float32, rowPtrHost []int32, functional bool) error {

	rows := sh.r1 - sh.r0
	// CPU binning (charged; functional work is the same host call).
	var blocks []RowBlock
	shardRowPtr := rowPtrHost[sh.r0 : sh.r1+1]
	if _, err := dc.RunCPU(BinFlopsPerRow*float64(rows), BinBytesPerRow*float64(rows),
		func() { blocks = BuildRowBlocks(shardRowPtr) }); err != nil {
		return err
	}
	if blocks == nil {
		// Phantom runs still need block shapes for the cost model.
		blocks = BuildRowBlocks(shardRowPtr)
	}

	if dc.IsLeaf() {
		var col []int32
		var val, x, y []float32
		if functional {
			col = view.I32(colBuf.Bytes())
			val = view.F32(valBuf.Bytes())
			x = view.F32(xLeaf.Bytes())
			y = yView[sh.r0:sh.r1]
		}
		kern := Kernel(blocks, shardRowPtr, col, val, x, y)
		_, err := dc.LaunchKernel(kern, len(blocks))
		return err
	}

	// 3-level path: shard data and a y segment move to the child level.
	child := dc.Children()[0]
	shardNNZ := int64(shardRowPtr[rows] - shardRowPtr[0])
	// Release whatever was allocated, also when a later allocation fails.
	var bufs []*core.Buffer
	defer func() {
		for _, b := range bufs {
			dc.Release(b)
		}
	}()
	for _, size := range []int64{int64(rows+1) * 4, shardNNZ * 4, shardNNZ * 4, int64(rows) * 4} {
		b, err := dc.AllocAt(child, size)
		if err != nil {
			return err
		}
		bufs = append(bufs, b)
	}
	gRow, gCol, gVal, gY := bufs[0], bufs[1], bufs[2], bufs[3]
	if err := dc.MoveDataDown(gRow, rowBuf, 0, 0, int64(rows+1)*4); err != nil {
		return err
	}
	if err := dc.MoveDataDown(gCol, colBuf, 0, 0, shardNNZ*4); err != nil {
		return err
	}
	if err := dc.MoveDataDown(gVal, valBuf, 0, 0, shardNNZ*4); err != nil {
		return err
	}
	err := dc.Descend(child, func(lc *core.Ctx) error {
		var col []int32
		var val, x, y []float32
		if functional {
			col = view.I32(gCol.Bytes())
			val = view.F32(gVal.Bytes())
			x = view.F32(xLeaf.Bytes())
			y = view.F32(gY.Bytes())
		}
		kern := Kernel(blocks, shardRowPtr, col, val, x, y)
		_, kerr := lc.LaunchKernel(kern, len(blocks))
		return kerr
	})
	if err != nil {
		return err
	}
	return dc.MoveDataUp(yStage, gY, int64(sh.r0)*4, 0, int64(rows)*4)
}

// RunInMemory executes the in-memory baseline: matrix and vectors resident
// in DRAM, CPU binning plus one kernel dispatch, no I/O measured.
func RunInMemory(rt *core.Runtime, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rootNode := rt.Tree().Root()
	if rootNode.Store != nil {
		return nil, fmt.Errorf("spmv: in-memory baseline needs a DRAM root (got %v)", rootNode)
	}
	n := cfg.N
	functional := !rt.Phantom()
	m, rowPtrHost, err := hostMatrix(cfg, functional)
	if err != nil {
		return nil, err
	}
	nnz := int64(rowPtrHost[n])

	var res *Result
	stats, err := rt.Run("spmv-inmemory", func(c *core.Ctx) error {
		// Buffers exist (capacity accounting) but inputs appear untimed.
		for _, size := range []int64{int64(n+1) * 4, nnz * 4, nnz * 4, int64(n) * 4, int64(n) * 4} {
			if _, err := c.Alloc(size); err != nil {
				return err
			}
		}
		var blocks []RowBlock
		if _, err := c.RunCPU(BinFlopsPerRow*float64(n), BinBytesPerRow*float64(n),
			func() { blocks = BuildRowBlocks(rowPtrHost) }); err != nil {
			return err
		}
		if blocks == nil {
			blocks = BuildRowBlocks(rowPtrHost)
		}
		var col []int32
		var val, x, y []float32
		if functional {
			col, val = m.ColIdx, m.Val
			x = workload.Vector(n, cfg.Seed+1)
			y = make([]float32, n)
		}
		kern := Kernel(blocks, rowPtrHost, col, val, x, y)
		if _, err := c.LaunchKernel(kern, len(blocks)); err != nil {
			return err
		}
		res = &Result{Y: y, Shards: 1}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
