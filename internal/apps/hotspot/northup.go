package hotspot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/view"
	"repro/internal/workload"
)

// Config parameterizes a HotSpot-2D run.
type Config struct {
	// N is the grid dimension.
	N int
	// Seed drives input generation (functional runs only).
	Seed int64
	// ChunkDim forces the out-of-core blocking (the paper's 8k for 16k
	// inputs); 0 derives it from the staging capacity.
	ChunkDim int
	// Iters is the number of Jacobi steps per pass (Rodinia's default
	// simulation runs 60 steps).
	Iters int
	// Passes repeats the whole out-of-core sweep, regenerating border
	// vectors between passes.
	Passes int
	// Depth is the chunk-pipeline depth (default 1: double buffering of
	// whole chunks, which is what 2 GiB of staging admits at 8k blocking).
	Depth int
	// Streamed routes the chunk loads and stores — including the halo
	// (border) loads and the GPU staging moves on 3-level trees — through
	// the streaming transfer engine, sub-chunking each move so successive
	// hops overlap. Adaptive sizing degenerates to the monolithic path
	// when sub-chunking cannot help.
	Streamed bool
	// StreamOpts tunes the streamed moves (zero value = adaptive sizing).
	StreamOpts core.StreamOptions
}

func (cfg *Config) setDefaults() error {
	if cfg.N <= 0 || cfg.N%BlockDim != 0 {
		return fmt.Errorf("hotspot: N=%d must be a positive multiple of %d", cfg.N, BlockDim)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 60
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	return nil
}

// Result carries the run's output and measurements.
type Result struct {
	// Temp is the final temperature grid (nil in phantom mode).
	Temp []float32
	// Stats is the measured run (excluding input preprocessing).
	Stats core.RunStats
	// ChunkDim is the blocking actually used.
	ChunkDim int
}

// chooseChunkDim picks the largest chunk edge (multiple of BlockDim,
// dividing n) whose in/out/power buffers and borders fit depth+1 times into
// the free staging bytes.
func chooseChunkDim(n, depth int, free int64) (int, error) {
	for d := n; d >= BlockDim; d -= BlockDim {
		if n%d != 0 {
			continue
		}
		per := 4 * (3*int64(d)*int64(d) + 4*int64(d))
		if per*int64(depth+1) <= free*9/10 {
			return d, nil
		}
	}
	return 0, fmt.Errorf("hotspot: no chunk size fits %d free bytes for N=%d", free, n)
}

// borderOff returns the file offset of chunk ci's packed border record
// (four vectors of d floats: N, S, W, E; absent sides are zero-filled and
// identified by chunk position).
func borderOff(ci, d int) int64 { return int64(ci) * 4 * int64(d) * 4 }

// TileKernelFor builds the GPU kernel advancing blk by one Jacobi step.
// A nil blk gives the phantom (timing-only) kernel.
func TileKernelFor(blk *Block, d int) (gpu.Kernel, int) {
	tiles := (d + BlockDim - 1) / BlockDim
	groups := tiles * tiles
	kern := gpu.Kernel{
		Name:          "hotspot-tile",
		FlopsPerGroup: TileFlops,
		BytesPerGroup: TileBytes,
		LocalBytes:    TileLocalBytes,
	}
	if blk != nil {
		kern.Run = func(g int) { blk.StepTile(g/tiles, g%tiles) }
	}
	return kern, groups
}

// gpuIterations advances blk by iters Jacobi steps on the GPU at lc's
// node, one tile-kernel launch per step. blk is nil in phantom mode.
func gpuIterations(lc *core.Ctx, blk *Block, d, iters int) error {
	for it := 0; it < iters; it++ {
		kern, groups := TileKernelFor(blk, d)
		if _, err := lc.LaunchKernel(kern, groups); err != nil {
			return err
		}
		if blk != nil {
			blk.Swap()
		}
	}
	return nil
}

// RunNorthup executes the out-of-core thermal simulation per §IV-B: the
// grid lives chunk-major on the storage root (the one-time preprocessing),
// each pass pipelines chunks through the staging level, runs Iters stencil
// steps on the GPU with pass-start border vectors, writes results back, and
// regenerates the border file for the next pass from chunk edges.
func RunNorthup(rt *core.Runtime, cfg Config) (*Result, error) {
	return runChunked(rt, cfg, gpuIterations)
}

// chunkComputeFn advances one chunk by iters steps. blk is nil in phantom
// mode; implementations must call blk.Swap() after every iteration so the
// final state lands per the odd/even convention iterateChunk folds up.
type chunkComputeFn func(lc *core.Ctx, blk *Block, d, iters int) error

// gridFiles is a run's input grid on the storage root, laid out
// chunk-major (the paper's one-time preprocessing, untimed): temperature
// in and out, power, and the packed border records in and out.
type gridFiles struct {
	temp   [2]*core.Buffer // temp[0] holds the initial grid
	power  *core.Buffer
	border [2]*core.Buffer // border[0] holds the initial borders
}

// createGridFiles preprocesses the n x n grid for chunk edge d and creates
// its files on the storage root, named in the order temp in, temp out,
// power, border in, border out. An empty name skips that file.
func createGridFiles(rt *core.Runtime, n, d int, seed int64, names [5]string) (gridFiles, error) {
	cb := n / d
	gridBytes := int64(n) * int64(n) * 4
	borderFileBytes := int64(cb*cb) * int64(4*d) * 4
	sizes := [5]int64{gridBytes, gridBytes, gridBytes, borderFileBytes, borderFileBytes}
	var data [5][]byte
	if !rt.Phantom() {
		grid := workload.HotSpotGrid(n, seed)
		data[0] = view.F32Bytes(toChunkMajor(grid.Temp, n, d))
		data[2] = view.F32Bytes(toChunkMajor(grid.Power, n, d))
		data[3] = view.F32Bytes(packAllBorders(grid.Temp, n, d))
	}
	var g gridFiles
	files := [5]**core.Buffer{&g.temp[0], &g.temp[1], &g.power, &g.border[0], &g.border[1]}
	for i, name := range names {
		if name == "" {
			continue
		}
		var err error
		if *files[i], err = rt.CreateInput(rt.Tree().Root(), name, sizes[i], data[i]); err != nil {
			return gridFiles{}, err
		}
	}
	return g, nil
}

// chunkSlot is one chunk's buffers at the staging level while it is in
// flight between the load and compute-store stages.
type chunkSlot struct {
	tin, tout, pow, bord *core.Buffer
}

// release frees the slot's buffers (unpinning the cached power chunk) and
// empties it; buffers never allocated are skipped.
func (s *chunkSlot) release(c *core.Ctx) {
	if s.tin != nil {
		c.Release(s.tin)
	}
	if s.tout != nil {
		c.Release(s.tout)
	}
	if s.pow != nil {
		c.Unpin(s.pow)
	}
	if s.bord != nil {
		c.Release(s.bord)
	}
	*s = chunkSlot{}
}

// runChunked is the out-of-core skeleton every single-branch driver
// shares: preprocessing, the load / compute / store pipeline over chunks,
// border regeneration between passes, and result assembly. compute is the
// leaf strategy.
func runChunked(rt *core.Runtime, cfg Config, compute chunkComputeFn) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, fmt.Errorf("hotspot: tree root %v is not storage", root)
	}
	dram := root.Children[0]
	n := cfg.N
	d := cfg.ChunkDim
	if d == 0 {
		var err error
		if d, err = chooseChunkDim(n, cfg.Depth, dram.Mem.Free()); err != nil {
			return nil, err
		}
	}
	if n%d != 0 || d%BlockDim != 0 {
		return nil, fmt.Errorf("hotspot: chunk %d invalid for N=%d", d, n)
	}
	cb := n / d
	chunks := cb * cb
	chunkBytes := int64(d) * int64(d) * 4
	borderBytes := int64(4*d) * 4

	files, err := createGridFiles(rt, n, d, cfg.Seed,
		[5]string{"hs-temp-0", "hs-temp-1", "hs-power", "hs-border-0", "hs-border-1"})
	if err != nil {
		return nil, err
	}
	fT, fP, fB := files.temp, files.power, files.border

	slots := make([]chunkSlot, chunks)

	stats, err := rt.Run("hotspot-northup", func(c *core.Ctx) error {
		for pass := 0; pass < cfg.Passes; pass++ {
			src, dst := fT[pass%2], fT[(pass+1)%2]
			bSrc, bDst := fB[pass%2], fB[(pass+1)%2]
			// Stage bodies run as named task spans: a traced pass shows the
			// load lane running ahead of compute-store (Fig. 5's overlap).
			err := c.Pipeline(chunks, cfg.Depth,
				func(sub *core.Ctx, ci int) error { // load chunk + borders
					return sub.Task("load-chunk", chunkBytes, func(sub *core.Ctx) error {
						s := &slots[ci]
						var err error
						if s.tin, err = sub.AllocAt(dram, chunkBytes); err != nil {
							return err
						}
						if s.tout, err = sub.AllocAt(dram, chunkBytes); err != nil {
							return err
						}
						// Power never changes across iterations or passes, so
						// its chunks come through the staging cache: pass 2+
						// re-reads hit instead of going back to storage. The
						// temperature and border files are rewritten every pass
						// and must not be cached.
						if s.pow, err = sub.MoveDataDownCached(dram, fP, int64(ci)*chunkBytes, chunkBytes); err != nil {
							return err
						}
						if ci+1 < chunks {
							sub.Prefetch(dram, fP, int64(ci+1)*chunkBytes, chunkBytes)
						}
						if s.bord, err = sub.AllocAt(dram, borderBytes); err != nil {
							return err
						}
						if cfg.Streamed {
							if err := sub.MoveDataDownStreamed(s.tin, src, 0, int64(ci)*chunkBytes, chunkBytes, cfg.StreamOpts); err != nil {
								return err
							}
							return sub.MoveDataDownStreamed(s.bord, bSrc, 0, borderOff(ci, d), borderBytes, cfg.StreamOpts)
						}
						if err := sub.MoveData(s.tin, src, 0, int64(ci)*chunkBytes, chunkBytes); err != nil {
							return err
						}
						return sub.MoveData(s.bord, bSrc, 0, borderOff(ci, d), borderBytes)
					})
				},
				func(sub *core.Ctx, ci int) error { // compute at the leaf, then store
					return sub.Task("compute-store", chunkBytes, func(sub *core.Ctx) error {
						s := &slots[ci]
						err := sub.Descend(dram, func(dc *core.Ctx) error {
							return computeChunk(dc, cfg, compute, s.tin, s.tout, s.pow, s.bord, d, cb, ci)
						})
						if err != nil {
							return err
						}
						// Store the chunk and the borders its neighbours will
						// read next pass. Keeping store in the compute stage
						// bounds in-flight chunks to depth+1, which is what a
						// 2 GiB staging buffer admits at the paper's 8k
						// blocking.
						if cfg.Streamed {
							if err := sub.MoveDataUpStreamed(dst, s.tin, int64(ci)*chunkBytes, 0, chunkBytes, cfg.StreamOpts); err != nil {
								return err
							}
						} else if err := sub.MoveData(dst, s.tin, int64(ci)*chunkBytes, 0, chunkBytes); err != nil {
							return err
						}
						if err := writeNeighborBorders(sub, bDst, s.tin, d, cb, ci); err != nil {
							return err
						}
						s.release(sub)
						return nil
					})
				},
			)
			if err != nil {
				// Chunks a failed stage left in flight.
				for ci := range slots {
					slots[ci].release(c)
				}
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Stats: stats, ChunkDim: d}
	if !rt.Phantom() {
		final := make([]float32, n*n)
		if err := fT[cfg.Passes%2].File().Peek(view.F32Bytes(final), 0); err != nil {
			return nil, err
		}
		res.Temp = fromChunkMajor(final, n, d)
	}
	return res, nil
}

// iterateChunk advances chunk ci — staged in in, out, power and borders at
// lc's node — by iters steps of compute, leaving the result in in.
func iterateChunk(lc *core.Ctx, compute chunkComputeFn, iters int,
	in, out, power, borders *core.Buffer, d, cb, ci int) error {

	functional := !lc.Runtime().Phantom()
	var blk *Block
	if functional {
		blk = &Block{
			D:     d,
			In:    view.F32(in.Bytes()),
			Out:   view.F32(out.Bytes()),
			Power: view.F32(power.Bytes()),
			B:     unpackBorders(view.F32(borders.Bytes()), d, cb, ci),
		}
	}
	if err := compute(lc, blk, d, iters); err != nil {
		return err
	}
	if functional && iters%2 == 1 {
		// An odd iteration count leaves the result in the out backing
		// array; fold it back so the store path always reads in.
		copy(view.F32(in.Bytes()), view.F32(out.Bytes()))
	}
	return nil
}

// computeChunk runs the per-chunk iterations at the leaf. On the 2-level
// APU tree dc already is the leaf; on the 3-level discrete tree (Figure 8)
// the chunk and its borders move one more level down into GPU device
// memory, compute there, and the result moves back up over PCIe.
func computeChunk(dc *core.Ctx, cfg Config, compute chunkComputeFn,
	tin, tout, pow, bord *core.Buffer, d, cb, ci int) error {

	if dc.IsLeaf() {
		return iterateChunk(dc, compute, cfg.Iters, tin, tout, pow, bord, d, cb, ci)
	}

	// 3-level path: stage the chunk into the child (GPU device) memory.
	child := dc.Children()[0]
	chunkBytes := tin.Size()
	// Release whatever was allocated, also when a later allocation fails.
	var bufs []*core.Buffer
	defer func() {
		for _, b := range bufs {
			dc.Release(b)
		}
	}()
	for _, size := range []int64{chunkBytes, chunkBytes, chunkBytes, bord.Size()} {
		b, err := dc.AllocAt(child, size)
		if err != nil {
			return err
		}
		bufs = append(bufs, b)
	}
	gin, gout, gpow, gbord := bufs[0], bufs[1], bufs[2], bufs[3]
	moveDown := func(dst, src *core.Buffer, n int64) error {
		if cfg.Streamed {
			return dc.MoveDataDownStreamed(dst, src, 0, 0, n, cfg.StreamOpts)
		}
		return dc.MoveDataDown(dst, src, 0, 0, n)
	}
	if err := moveDown(gin, tin, chunkBytes); err != nil {
		return err
	}
	if err := moveDown(gpow, pow, chunkBytes); err != nil {
		return err
	}
	if err := moveDown(gbord, bord, bord.Size()); err != nil {
		return err
	}
	err := dc.Descend(child, func(lc *core.Ctx) error {
		if !lc.IsLeaf() {
			return fmt.Errorf("hotspot: trees deeper than 3 levels are not supported")
		}
		return iterateChunk(lc, compute, cfg.Iters, gin, gout, gpow, gbord, d, cb, ci)
	})
	if err != nil {
		return err
	}
	if cfg.Streamed {
		return dc.MoveDataUpStreamed(tin, gin, 0, 0, chunkBytes, cfg.StreamOpts)
	}
	return dc.MoveDataUp(tin, gin, 0, 0, chunkBytes)
}

// writeNeighborBorders packs the result chunk's edge rows/columns and
// writes them into the border records its four neighbors will read next
// pass. Column edges are gathered into compact vectors first — the §IV-B
// fix for non-contiguous east/west borders.
func writeNeighborBorders(sub *core.Ctx, bDst *core.Buffer, tin *core.Buffer, d, cb, ci int) error {
	bi, bj := ci/cb, ci%cb
	rowBytes := int64(d) * 4
	functional := !sub.Runtime().Phantom()

	// South neighbor's NORTH border = our bottom row (contiguous).
	if bi+1 < cb {
		off := borderOff((bi+1)*cb+bj, d) + 0
		if err := sub.MoveData(bDst, tin, off, int64(d-1)*rowBytes, rowBytes); err != nil {
			return err
		}
	}
	// North neighbor's SOUTH border = our top row (contiguous).
	if bi > 0 {
		off := borderOff((bi-1)*cb+bj, d) + rowBytes
		if err := sub.MoveData(bDst, tin, off, 0, rowBytes); err != nil {
			return err
		}
	}
	// East neighbor's WEST border = our rightmost column (strided; pack it).
	if bj+1 < cb {
		if err := writePackedColumn(sub, bDst, tin, d, functional,
			d-1, borderOff(bi*cb+bj+1, d)+2*rowBytes); err != nil {
			return err
		}
	}
	// West neighbor's EAST border = our leftmost column.
	if bj > 0 {
		if err := writePackedColumn(sub, bDst, tin, d, functional,
			0, borderOff(bi*cb+bj-1, d)+3*rowBytes); err != nil {
			return err
		}
	}
	return nil
}

// writePackedColumn gathers column col of the d x d chunk in tin into a
// compact staging vector (a strided 2-D move, charged as such) and writes
// the packed vector to the border file at fileOff.
func writePackedColumn(sub *core.Ctx, bDst, tin *core.Buffer, d int, functional bool, col int, fileOff int64) error {
	vec, err := sub.AllocAt(tin.Node(), int64(d)*4)
	if err != nil {
		return err
	}
	defer sub.Release(vec)
	if err := sub.MoveData2D(vec, tin, 0, 4, int64(col)*4, int64(d)*4, d, 4); err != nil {
		return err
	}
	return sub.MoveData(bDst, vec, fileOff, 0, int64(d)*4)
}

// toChunkMajor reorders a row-major n x n grid into chunk-major layout
// (chunk (bi,bj) of d x d stored contiguously, row-major within the chunk).
func toChunkMajor(g []float32, n, d int) []float32 {
	cb := n / d
	out := make([]float32, n*n)
	for bi := 0; bi < cb; bi++ {
		for bj := 0; bj < cb; bj++ {
			base := (bi*cb + bj) * d * d
			for r := 0; r < d; r++ {
				copy(out[base+r*d:base+(r+1)*d], g[(bi*d+r)*n+bj*d:(bi*d+r)*n+(bj+1)*d])
			}
		}
	}
	return out
}

// fromChunkMajor inverts toChunkMajor.
func fromChunkMajor(g []float32, n, d int) []float32 {
	cb := n / d
	out := make([]float32, n*n)
	for bi := 0; bi < cb; bi++ {
		for bj := 0; bj < cb; bj++ {
			base := (bi*cb + bj) * d * d
			for r := 0; r < d; r++ {
				copy(out[(bi*d+r)*n+bj*d:(bi*d+r)*n+(bj+1)*d], g[base+r*d:base+(r+1)*d])
			}
		}
	}
	return out
}

// packAllBorders builds the initial border file content from the row-major
// grid: for each chunk, four d-vectors (N, S, W, E), zeros where the chunk
// touches the grid edge.
func packAllBorders(temp []float32, n, d int) []float32 {
	cb := n / d
	out := make([]float32, cb*cb*4*d)
	for bi := 0; bi < cb; bi++ {
		for bj := 0; bj < cb; bj++ {
			ci := bi*cb + bj
			base := ci * 4 * d
			i0, j0 := bi*d, bj*d
			if i0 > 0 {
				copy(out[base:base+d], temp[(i0-1)*n+j0:(i0-1)*n+j0+d])
			}
			if i0+d < n {
				copy(out[base+d:base+2*d], temp[(i0+d)*n+j0:(i0+d)*n+j0+d])
			}
			if j0 > 0 {
				for r := 0; r < d; r++ {
					out[base+2*d+r] = temp[(i0+r)*n+j0-1]
				}
			}
			if j0+d < n {
				for r := 0; r < d; r++ {
					out[base+3*d+r] = temp[(i0+r)*n+j0+d]
				}
			}
		}
	}
	return out
}

// unpackBorders builds a Borders view over a chunk's border buffer,
// nil-ing the sides where chunk ci touches the grid edge.
func unpackBorders(b []float32, d, cb, ci int) Borders {
	bi, bj := ci/cb, ci%cb
	var out Borders
	if bi > 0 {
		out.North = b[0:d]
	}
	if bi+1 < cb {
		out.South = b[d : 2*d]
	}
	if bj > 0 {
		out.West = b[2*d : 3*d]
	}
	if bj+1 < cb {
		out.East = b[3*d : 4*d]
	}
	return out
}

// RunInMemory executes the in-memory baseline: the whole grid resident in
// DRAM, Iters kernel launches, no I/O in the measured region.
func RunInMemory(rt *core.Runtime, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rootNode := rt.Tree().Root()
	if rootNode.Store != nil {
		return nil, fmt.Errorf("hotspot: in-memory baseline needs a DRAM root (got %v)", rootNode)
	}
	n := cfg.N
	gridBytes := int64(n) * int64(n) * 4
	functional := !rt.Phantom()
	iters := cfg.Iters * cfg.Passes

	var res *Result
	stats, err := rt.Run("hotspot-inmemory", func(c *core.Ctx) error {
		tin, err := c.Alloc(gridBytes)
		if err != nil {
			return err
		}
		tout, err := c.Alloc(gridBytes)
		if err != nil {
			return err
		}
		pow, err := c.Alloc(gridBytes)
		if err != nil {
			return err
		}
		var blk *Block
		if functional {
			grid := workload.HotSpotGrid(n, cfg.Seed)
			blk = &Block{D: n, In: view.F32(tin.Bytes()), Out: view.F32(tout.Bytes()),
				Power: view.F32(pow.Bytes())}
			copy(blk.In, grid.Temp)
			copy(blk.Power, grid.Power)
		}
		if err := gpuIterations(c, blk, n, iters); err != nil {
			return err
		}
		res = &Result{ChunkDim: n}
		if functional {
			res.Temp = append([]float32(nil), blk.In...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
