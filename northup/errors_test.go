package northup_test

// Error-path coverage for the public API: programs that misuse the unified
// data-management interface get errors back, never panics.

import (
	"strings"
	"testing"

	"repro/northup"
)

func newTinyRuntime() *northup.Runtime {
	e := northup.NewEngine()
	tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
		StorageMiB: 8, DRAMMiB: 1})
	return northup.NewRuntime(e, tree, northup.DefaultOptions())
}

func TestAllocBeyondCapacityReturnsError(t *testing.T) {
	rt := newTinyRuntime()
	_, err := rt.Run("overalloc", func(c *northup.Ctx) error {
		dram := c.Children()[0]
		if _, err := c.AllocAt(dram, 2*northup.MiB); err == nil {
			t.Error("allocating 2 MiB on a 1 MiB device succeeded")
		}
		// The failure must be clean: the device stays usable afterwards.
		b, err := c.AllocAt(dram, 256*northup.KiB)
		if err != nil {
			t.Errorf("device unusable after refused alloc: %v", err)
			return nil
		}
		return c.Release(b)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleReleaseReturnsError(t *testing.T) {
	rt := newTinyRuntime()
	_, err := rt.Run("double-release", func(c *northup.Ctx) error {
		b, err := c.Alloc(4 * northup.KiB)
		if err != nil {
			return err
		}
		if err := c.Release(b); err != nil {
			t.Errorf("first release failed: %v", err)
		}
		if err := c.Release(b); err == nil {
			t.Error("double release succeeded")
		}
		if err := c.Release(nil); err == nil {
			t.Error("releasing nil succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoveDataDownPastLeafReturnsError(t *testing.T) {
	rt := newTinyRuntime()
	_, err := rt.Run("past-leaf", func(c *northup.Ctx) error {
		leaf := c.Children()[0]
		a, err := c.AllocAt(leaf, 4*northup.KiB)
		if err != nil {
			return err
		}
		b, err := c.AllocAt(leaf, 4*northup.KiB)
		if err != nil {
			return err
		}
		defer c.Release(a)
		defer c.Release(b)
		return c.Descend(leaf, func(lc *northup.Ctx) error {
			if !lc.IsLeaf() {
				t.Fatal("expected to be at the leaf")
			}
			// There is no level below the leaf: data_down must refuse.
			if err := lc.MoveDataDown(b, a, 0, 0, 4*northup.KiB); err == nil {
				t.Error("move_data_down below the leaf succeeded")
			} else if !strings.Contains(err.Error(), "child") {
				t.Errorf("unhelpful error: %v", err)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoveBeyondBufferBoundsReturnsError(t *testing.T) {
	rt := newTinyRuntime()
	_, err := rt.Run("bounds", func(c *northup.Ctx) error {
		src, err := c.Alloc(4 * northup.KiB)
		if err != nil {
			return err
		}
		dst, err := c.AllocAt(c.Children()[0], 4*northup.KiB)
		if err != nil {
			return err
		}
		defer c.Release(dst)
		if err := c.MoveDataDown(dst, src, 0, 0, 8*northup.KiB); err == nil {
			t.Error("move past the source's end succeeded")
		}
		if err := c.MoveDataDown(dst, src, 2*northup.KiB, 0, 3*northup.KiB); err == nil {
			t.Error("move past the destination's end succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTaskGraphRejectsMalformedExtents: extents the dependence analysis
// cannot order (negative, overflowing, past the buffer, bytes without a
// buffer) make Run fail with an error naming the task, before any task
// body runs.
func TestTaskGraphRejectsMalformedExtents(t *testing.T) {
	for _, tc := range []struct {
		name string
		ext  func(b *northup.Buffer) northup.TaskExtent
		want string
	}{
		{"negative-off", func(b *northup.Buffer) northup.TaskExtent { return northup.TaskExtent{Buf: b, Off: -1, Len: 8} }, "negative"},
		{"negative-len", func(b *northup.Buffer) northup.TaskExtent { return northup.TaskExtent{Buf: b, Off: 0, Len: -8} }, "negative"},
		{"overflow", func(b *northup.Buffer) northup.TaskExtent {
			return northup.TaskExtent{Buf: b, Off: 1 << 62, Len: 1 << 62}
		}, "past the end"},
		{"past-end", func(b *northup.Buffer) northup.TaskExtent { return northup.TaskExtent{Buf: b, Off: 4000, Len: 200} }, "past the end"},
		{"nil-buf", func(*northup.Buffer) northup.TaskExtent { return northup.TaskExtent{Off: 0, Len: 8} }, "without a buffer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newTinyRuntime()
			ran := false
			_, err := rt.Run("graph", func(c *northup.Ctx) error {
				b, err := c.Alloc(4 * northup.KiB)
				if err != nil {
					return err
				}
				g := northup.NewTaskGraph()
				body := func(*northup.Ctx) error { ran = true; return nil }
				g.Add(&northup.Task{Name: "fine", Cost: 1, Run: body,
					Reads: []northup.TaskExtent{{Buf: b, Off: 0, Len: 4096}, {Off: 0, Len: 0}}})
				g.Add(&northup.Task{Name: "bad", Cost: 1, Run: body,
					Writes: []northup.TaskExtent{{Buf: b, Off: 0, Len: 8}, tc.ext(b)}})
				_, err = g.Run(c, northup.TaskOptions{Affinity: true})
				return err
			})
			if err == nil {
				t.Fatal("malformed extent accepted")
			}
			for _, frag := range []string{`task 1 ("bad")`, "write extent 1", tc.want} {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not mention %q", err, frag)
				}
			}
			if ran {
				t.Error("a task body ran before the malformed extent was reported")
			}
		})
	}
}
