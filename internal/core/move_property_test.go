package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestMoveRoundTripAcrossKindsProperty drives random payloads at random
// offsets through every node kind of the 3-level tree — DRAM -> storage ->
// storage -> DRAM -> GPU memory -> DRAM — and demands bit-exact survival.
// This is the unified interface's core contract: the opaque handle behaves
// identically no matter which memories back it. Each case then reruns in
// phantom mode, which must charge the same elapsed time and breakdown: one
// move dispatch serves both modes, and phantom only skips the byte copies.
func TestMoveRoundTripAcrossKindsProperty(t *testing.T) {
	run := func(payload []byte, off int64, phantom bool) (RunStats, bool, error) {
		e := sim.NewEngine()
		tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
			StorageMiB: 4, DRAMMiB: 2, GPUMemMiB: 2})
		opts := DefaultOptions()
		opts.Phantom = phantom
		rt := NewRuntime(e, tree, opts)
		root, dram, gmem := tree.Node(0), tree.Node(1), tree.Node(2)
		size := int64(len(payload)) + off + 1
		ok := true
		stats, err := rt.Run("prop", func(c *Ctx) error {
			stage, err := c.AllocAt(dram, size)
			if err != nil {
				return err
			}
			disk, err := c.AllocAt(root, size)
			if err != nil {
				return err
			}
			disk2, err := c.AllocAt(root, size)
			if err != nil {
				return err
			}
			dev, err := c.AllocAt(gmem, size)
			if err != nil {
				return err
			}
			back, err := c.AllocAt(dram, size)
			if err != nil {
				return err
			}
			if !phantom {
				copy(stage.Bytes()[off:], payload)
			}
			n := int64(len(payload))
			if err := c.MoveData(disk, stage, off, off, n); err != nil {
				return err
			}
			// File to file: the scratch-staged storage copy.
			if err := c.MoveData(disk2, disk, off, off, n); err != nil {
				return err
			}
			if err := c.MoveData(back, disk2, off, off, n); err != nil {
				return err
			}
			if err := c.MoveData(dev, back, off, off, n); err != nil {
				return err
			}
			// Clear and pull back from the GPU.
			for i := range back.Bytes() {
				back.Bytes()[i] = 0
			}
			if err := c.MoveData(back, dev, off, off, n); err != nil {
				return err
			}
			if !phantom {
				ok = bytes.Equal(back.Bytes()[off:off+n], payload)
			}
			return nil
		})
		return stats, ok, err
	}
	f := func(payload []byte, offRaw uint8) bool {
		if len(payload) == 0 {
			return true
		}
		off := int64(offRaw)
		functional, ok, err := run(payload, off, false)
		if err != nil || !ok {
			return false
		}
		phantom, _, err := run(payload, off, true)
		if err != nil {
			return false
		}
		if phantom.Elapsed != functional.Elapsed || phantom.Breakdown != functional.Breakdown {
			t.Logf("phantom elapsed %v breakdown %v != functional %v %v",
				phantom.Elapsed, phantom.Breakdown, functional.Elapsed, functional.Breakdown)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMove2DRandomRectangles round-trips random sub-rectangles between a
// host buffer and a storage buffer with independent strides.
func TestMove2DRandomRectangles(t *testing.T) {
	f := func(seed []byte, rRaw, cRaw, strideRaw uint8) bool {
		rows := int(rRaw%6) + 1
		rowBytes := int(cRaw%24) + 1
		extra := int64(strideRaw % 32)
		srcStride := int64(rowBytes) + extra
		if len(seed) == 0 {
			seed = []byte{42}
		}
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 4, DRAMMiB: 1})
		rt := NewRuntime(e, tree, DefaultOptions())
		root, dram := tree.Node(0), tree.Node(1)
		hostSize := srcStride * int64(rows)
		ok := true
		_, err := rt.Run("rect", func(c *Ctx) error {
			host, err := c.AllocAt(dram, hostSize)
			if err != nil {
				return err
			}
			for i := range host.Bytes() {
				host.Bytes()[i] = seed[i%len(seed)]
			}
			disk, err := c.AllocAt(root, int64(rows*rowBytes))
			if err != nil {
				return err
			}
			// Strided host -> packed storage.
			if err := c.MoveData2D(disk, host, 0, int64(rowBytes), 0, srcStride, rows, rowBytes); err != nil {
				return err
			}
			// Packed storage -> strided host copy 2.
			host2, err := c.AllocAt(dram, hostSize)
			if err != nil {
				return err
			}
			if err := c.MoveData2D(host2, disk, 0, srcStride, 0, int64(rowBytes), rows, rowBytes); err != nil {
				return err
			}
			for r := 0; r < rows; r++ {
				a := host.Bytes()[int64(r)*srcStride : int64(r)*srcStride+int64(rowBytes)]
				b := host2.Bytes()[int64(r)*srcStride : int64(r)*srcStride+int64(rowBytes)]
				if !bytes.Equal(a, b) {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
