package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// This file implements the unified move_data of the paper's Table I and
// Listing 4: one entry point whose behaviour is chosen by examining the
// storage types of the source and destination tree nodes — file I/O for
// storage endpoints, DMA/PCIe transfers for memory endpoints.

// MoveData copies n bytes from src (at srcOff) to dst (at dstOff), charging
// the device, link and I/O times of whichever path connects the two nodes.
// Transient faults injected on the edge (failures, delays, offline
// endpoints) are retried under the runtime's RetryPolicy; a re-attempted
// move re-copies the same bytes, so retries preserve bit-correctness.
func (rt *Runtime) MoveData(p *sim.Proc, dst *Buffer, src *Buffer, dstOff, srcOff, n int64) error {
	if err := checkMove(dst, src, dstOff, srcOff, n); err != nil {
		return err
	}
	if err := rt.checkMoveDst(dst); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	// Invalidate once, outside the retry loop: cached copies of the written
	// range must vanish whether or not the move needs re-attempts, and a
	// retried move must not double-count invalidations.
	rt.invalidateRange(p, dst, dstOff, n)
	rt.chargeOverhead(p)
	return rt.withRetry(p, "move_data", func() error {
		return rt.moveOnce(p, dst, src, dstOff, srcOff, n)
	})
}

// moveOnce is one attempt of MoveData: the fault check, then the dispatch
// of Listing 4. Phantom mode charges the same timing and only skips the
// byte copies.
func (rt *Runtime) moveOnce(p *sim.Proc, dst *Buffer, src *Buffer, dstOff, srcOff, n int64) error {
	if err := rt.faultTransfer(p, src, dst, n); err != nil {
		return err
	}
	phantom := rt.opts.Phantom
	start := p.Now()
	var cat trace.Category
	var err error
	switch {
	case src.file != nil && dst.file == nil:
		cat = trace.IO
		err = src.file.Charge(p, device.Read, srcOff, n)
		if err == nil && !phantom {
			err = src.file.Peek(dst.data[dstOff:dstOff+n], srcOff)
		}
		if err == nil && dst.node.Kind() == device.KindGPUMem {
			// GPUDirect-style path: the storage read lands in device memory
			// through the PCIe link as well.
			rt.pcie.Transfer(p, nil, dst.node.Mem, n)
		}
	case src.file == nil && dst.file != nil:
		cat = trace.IO
		if src.node.Kind() == device.KindGPUMem {
			rt.pcie.Transfer(p, src.node.Mem, nil, n)
		}
		err = dst.file.Charge(p, device.Write, dstOff, n)
		if err == nil && !phantom {
			err = dst.file.Preload(src.data[srcOff:srcOff+n], dstOff)
		}
	case src.file != nil && dst.file != nil:
		cat = trace.IO
		var tmp []byte
		if !phantom {
			tmp = rt.getScratch(n)
		}
		err = src.file.Charge(p, device.Read, srcOff, n)
		if err == nil && !phantom {
			err = src.file.Peek(tmp, srcOff)
		}
		if err == nil {
			err = dst.file.Charge(p, device.Write, dstOff, n)
		}
		if err == nil && !phantom {
			err = dst.file.Preload(tmp, dstOff)
		}
		rt.putScratch(tmp)
	default: // memory to memory
		cat = trace.Transfer
		if !phantom {
			copy(dst.data[dstOff:dstOff+n], src.data[srcOff:srcOff+n])
		}
		rt.link(src, dst).Transfer(p, src.node.Mem, dst.node.Mem, n)
	}
	rt.chargeSpan(p, moveLane(cat, dst, src), cat, spanMove, start, p.Now(), n)
	return err
}

// MoveData2D copies a rows x rowBytes block with independent strides on
// each side — the dCopyBlockH2D/D2H pattern of the paper's Listing 2,
// subsumed into the unified interface.
//
// Strided file accesses are issued row by row (each row is one I/O request,
// so discontiguous layouts pay per-row latency and seeks); strided
// memory-to-memory copies use one DMA transfer for the whole block.
func (rt *Runtime) MoveData2D(p *sim.Proc, dst *Buffer, src *Buffer,
	dstOff, dstStride, srcOff, srcStride int64, rows int, rowBytes int) error {
	if rows < 0 || rowBytes < 0 {
		return fmt.Errorf("core: move2d with negative shape %dx%d", rows, rowBytes)
	}
	if rows == 0 || rowBytes == 0 {
		return nil
	}
	if dstStride < 0 || srcStride < 0 {
		return fmt.Errorf("core: move2d with negative stride")
	}
	// Check the first and last rows; with non-negative strides every other
	// row lies between them.
	if err := checkMove(dst, src, dstOff, srcOff, int64(rowBytes)); err != nil {
		return err
	}
	if err := checkMove(dst, src,
		dstOff+int64(rows-1)*dstStride, srcOff+int64(rows-1)*srcStride, int64(rowBytes)); err != nil {
		return err
	}
	if err := rt.checkMoveDst(dst); err != nil {
		return err
	}
	rt.invalidateRange(p, dst, dstOff, int64(rows-1)*dstStride+int64(rowBytes))
	rt.chargeOverhead(p)
	return rt.withRetry(p, "move_data_2d", func() error {
		return rt.move2DOnce(p, dst, src, dstOff, dstStride, srcOff, srcStride, rows, rowBytes)
	})
}

// move2DOnce is one attempt of MoveData2D. The whole block is one
// injectable unit: a fault aborts the attempt and the retry re-issues every
// row, which matches how a failed scatter/gather DMA is re-queued whole.
func (rt *Runtime) move2DOnce(p *sim.Proc, dst *Buffer, src *Buffer,
	dstOff, dstStride, srcOff, srcStride int64, rows int, rowBytes int) error {
	if err := rt.faultTransfer(p, src, dst, int64(rows)*int64(rowBytes)); err != nil {
		return err
	}
	phantom := rt.opts.Phantom
	start := p.Now()
	var cat trace.Category
	var err error
	switch {
	case src.file != nil && dst.file == nil:
		cat = trace.IO
		for r := 0; r < rows && err == nil; r++ {
			s := srcOff + int64(r)*srcStride
			if phantom {
				err = src.file.Charge(p, device.Read, s, int64(rowBytes))
				continue
			}
			d := dstOff + int64(r)*dstStride
			err = src.file.ReadAt(p, dst.data[d:d+int64(rowBytes)], s)
		}
	case src.file == nil && dst.file != nil:
		cat = trace.IO
		for r := 0; r < rows && err == nil; r++ {
			d := dstOff + int64(r)*dstStride
			if phantom {
				err = dst.file.Charge(p, device.Write, d, int64(rowBytes))
				continue
			}
			s := srcOff + int64(r)*srcStride
			err = dst.file.WriteAt(p, src.data[s:s+int64(rowBytes)], d)
		}
	case src.file != nil && dst.file != nil:
		cat = trace.IO
		var tmp []byte
		if !phantom {
			tmp = rt.getScratch(int64(rowBytes))
		}
		for r := 0; r < rows && err == nil; r++ {
			if phantom {
				if err = src.file.Charge(p, device.Read, srcOff+int64(r)*srcStride, int64(rowBytes)); err == nil {
					err = dst.file.Charge(p, device.Write, dstOff+int64(r)*dstStride, int64(rowBytes))
				}
				continue
			}
			if err = src.file.ReadAt(p, tmp, srcOff+int64(r)*srcStride); err == nil {
				err = dst.file.WriteAt(p, tmp, dstOff+int64(r)*dstStride)
			}
		}
		rt.putScratch(tmp)
	default:
		cat = trace.Transfer
		if !phantom {
			err = xfer.Copy2D(dst.data, dstOff, dstStride, src.data, srcOff, srcStride, rows, rowBytes)
		}
		if err == nil {
			rt.link(src, dst).Transfer(p, src.node.Mem, dst.node.Mem, int64(rows)*int64(rowBytes))
			// Non-contiguous layouts pay a per-row descriptor cost on the
			// DMA path — the reason §VI's layout transformation wins once
			// data is reused enough.
			if srcStride != int64(rowBytes) || dstStride != int64(rowBytes) {
				per := src.node.Mem.Profile().Latency
				if l := dst.node.Mem.Profile().Latency; l > per {
					per = l
				}
				p.Sleep(sim.Time(rows) * per)
			}
		}
	}
	rt.chargeSpan(p, moveLane(cat, dst, src), cat, spanMove2D, start, p.Now(), int64(rows)*int64(rowBytes))
	return err
}

// link selects the interconnect for a memory-to-memory move: PCIe when a
// GPU device memory is involved, the host DMA engine otherwise.
func (rt *Runtime) link(src, dst *Buffer) *device.Link {
	if src.node.Kind() == device.KindGPUMem || dst.node.Kind() == device.KindGPUMem {
		return rt.pcie
	}
	return rt.dma
}

// scratchPoolSlots bounds how many recycled file-to-file staging buffers
// the runtime keeps; the pool exists so a retried move (or a hot loop of
// them) does not re-allocate its n-byte scratch on every attempt.
const scratchPoolSlots = 4

// getScratch returns an n-byte staging buffer, recycling a pooled one when
// any is large enough. Concurrent tasks simply take distinct entries (or
// fresh ones when the pool runs dry), so a buffer is never shared while a
// blocking I/O charge is in flight.
func (rt *Runtime) getScratch(n int64) []byte {
	for i := len(rt.scratch) - 1; i >= 0; i-- {
		if int64(cap(rt.scratch[i])) >= n {
			b := rt.scratch[i]
			rt.scratch = append(rt.scratch[:i], rt.scratch[i+1:]...)
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putScratch returns a staging buffer to the pool, evicting the smallest
// entry when full so the pool converges on the largest recent sizes.
func (rt *Runtime) putScratch(b []byte) {
	if cap(b) == 0 {
		return
	}
	if len(rt.scratch) < scratchPoolSlots {
		rt.scratch = append(rt.scratch, b)
		return
	}
	smallest := 0
	for i := 1; i < len(rt.scratch); i++ {
		if cap(rt.scratch[i]) < cap(rt.scratch[smallest]) {
			smallest = i
		}
	}
	if cap(rt.scratch[smallest]) < cap(b) {
		rt.scratch[smallest] = b
	}
}

// checkMove validates handles and ranges common to all move variants.
func checkMove(dst, src *Buffer, dstOff, srcOff, n int64) error {
	if dst == nil || src == nil {
		return fmt.Errorf("core: move with nil buffer")
	}
	if dst.released || src.released {
		return fmt.Errorf("core: move with released buffer")
	}
	if n < 0 {
		return fmt.Errorf("core: move of %d bytes", n)
	}
	if srcOff < 0 || srcOff+n > src.size {
		return fmt.Errorf("core: move source range [%d,%d) outside buffer of %d bytes",
			srcOff, srcOff+n, src.size)
	}
	if dstOff < 0 || dstOff+n > dst.size {
		return fmt.Errorf("core: move destination range [%d,%d) outside buffer of %d bytes",
			dstOff, dstOff+n, dst.size)
	}
	return nil
}
