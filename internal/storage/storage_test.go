package storage

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/sim"
)

func newTestStore(e *sim.Engine) *Store {
	return NewStore(device.New(e, device.SSDProfile(64*device.MiB, 1400, 600)))
}

// runIO runs fn as a single simulation process and fails the test on error.
func runIO(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("io", fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	f, err := s.Create("a", 1024)
	if err != nil {
		t.Fatal(err)
	}
	runIO(t, e, func(p *sim.Proc) {
		msg := []byte("hello northup")
		if err := f.WriteAt(p, msg, 100); err != nil {
			t.Error(err)
		}
		got := make([]byte, len(msg))
		if err := f.ReadAt(p, got, 100); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("read %q", got)
		}
	})
	if e.Now() <= 0 {
		t.Fatal("I/O consumed no virtual time")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	f, _ := s.Create("a", 4096)
	runIO(t, e, func(p *sim.Proc) {
		f.WriteAt(p, []byte{1, 2, 3}, 0)
		buf := []byte{9, 9, 9, 9}
		if err := f.ReadAt(p, buf, 1); err != nil {
			t.Error(err)
		}
		want := []byte{2, 3, 0, 0} // partially past written region
		if !bytes.Equal(buf, want) {
			t.Errorf("read %v, want %v", buf, want)
		}
		buf2 := []byte{9, 9}
		f.ReadAt(p, buf2, 3000) // fully past written region
		if buf2[0] != 0 || buf2[1] != 0 {
			t.Errorf("far read %v, want zeros", buf2)
		}
	})
}

func TestRangeErrors(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	f, _ := s.Create("a", 100)
	runIO(t, e, func(p *sim.Proc) {
		if err := f.ReadAt(p, make([]byte, 10), 95); err == nil {
			t.Error("read past EOF succeeded")
		}
		if err := f.WriteAt(p, make([]byte, 10), -1); err == nil {
			t.Error("negative-offset write succeeded")
		}
		if err := f.ReadAt(p, nil, 0); err != nil {
			t.Errorf("empty read failed: %v", err)
		}
	})
}

func TestNamespace(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	if _, err := s.Create("b", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("a", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("a", 10); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := s.Open("c"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	names := s.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List = %v", names)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestCapacityEnforced(t *testing.T) {
	e := sim.NewEngine()
	dev := device.New(e, device.SSDProfile(1000, 1400, 600))
	s := NewStore(dev)
	if _, err := s.Create("big", 800); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("more", 300); err == nil {
		t.Fatal("create beyond capacity succeeded")
	}
	if err := s.Remove("big"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("more", 300); err != nil {
		t.Fatalf("create after remove failed: %v", err)
	}
}

func TestUseAfterRemove(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	f, _ := s.Create("a", 100)
	s.Remove("a")
	runIO(t, e, func(p *sim.Proc) {
		if err := f.ReadAt(p, make([]byte, 1), 0); err == nil {
			t.Error("read of removed file succeeded")
		}
		if err := f.WriteAt(p, []byte{1}, 0); err == nil {
			t.Error("write of removed file succeeded")
		}
	})
}

func TestReadWrite2DRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	const rows, rowBytes = 8, 16
	stride := int64(64) // row starts 64 bytes apart inside the file
	f, _ := s.Create("m", stride*rows+100)
	src := make([]byte, rows*rowBytes)
	for i := range src {
		src[i] = byte(i * 7)
	}
	got := make([]byte, rows*rowBytes)
	runIO(t, e, func(p *sim.Proc) {
		if err := f.WriteAt2D(p, src, 10, rows, rowBytes, stride); err != nil {
			t.Error(err)
		}
		if err := f.ReadAt2D(p, got, 10, rows, rowBytes, stride); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(src, got) {
		t.Fatal("2-D round trip mismatch")
	}
}

func TestStrided2DCostsMoreOnHDD(t *testing.T) {
	// The motivation for chunk-major preprocessing: a strided block read on
	// a seeky device is far slower than a contiguous read of the same bytes.
	elapsed := func(strided bool) sim.Time {
		e := sim.NewEngine()
		dev := device.New(e, device.HDDProfile(64*device.MiB))
		s := NewStore(dev)
		f, _ := s.Create("m", 32*device.MiB)
		buf := make([]byte, 64*1024)
		e.Spawn("io", func(p *sim.Proc) {
			if strided {
				f.ReadAt2D(p, buf, 0, 64, 1024, 128*1024)
			} else {
				f.ReadAt(p, buf, 0)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	seq, str := elapsed(false), elapsed(true)
	if str < 10*seq {
		t.Fatalf("strided read %v vs sequential %v: expected >=10x penalty", str, seq)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any write at any in-range offset reads back identically.
	f := func(data []byte, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		e := sim.NewEngine()
		s := newTestStore(e)
		size := int64(len(data)) + int64(offRaw) + 1
		file, err := s.Create("f", size)
		if err != nil {
			return false
		}
		ok := true
		e.Spawn("io", func(p *sim.Proc) {
			off := int64(offRaw)
			if err := file.WriteAt(p, data, off); err != nil {
				ok = false
				return
			}
			got := make([]byte, len(data))
			if err := file.ReadAt(p, got, off); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(got, data)
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFNV64aMatchesHashingPeekProperty checks the zero-tail fold against
// the reference: hash/fnv's New64a over the whole file read back by Peek.
// Sizes are random (0 included); the written content is none, a prefix, or
// a middle range, so the file's data buffer ends before, at, or well short
// of its logical size.
func TestFNV64aMatchesHashingPeekProperty(t *testing.T) {
	f := func(sizeRaw uint16, mode uint8, aRaw, bRaw uint16, seed int64) bool {
		size := int64(sizeRaw)
		if mode%4 == 3 {
			size = 0
		}
		s := newTestStore(sim.NewEngine())
		file, err := s.Create("f", size)
		if err != nil {
			return false
		}
		lo, hi := int64(0), int64(0)
		if size > 0 {
			lo, hi = int64(aRaw)%(size+1), int64(bRaw)%(size+1)
			if lo > hi {
				lo, hi = hi, lo
			}
		}
		switch mode % 4 {
		case 1: // a prefix
			lo = 0
		case 2: // a middle range
		default: // nothing written
			lo, hi = 0, 0
		}
		if hi > lo {
			data := make([]byte, hi-lo)
			rand.New(rand.NewSource(seed)).Read(data)
			if err := file.Preload(data, lo); err != nil {
				return false
			}
		}
		got, err := file.FNV64a()
		if err != nil {
			return false
		}
		whole := make([]byte, size)
		if err := file.Peek(whole, 0); err != nil {
			return false
		}
		ref := fnv.New64a()
		ref.Write(whole)
		return got == ref.Sum64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFNV64aOfRemovedFileFails(t *testing.T) {
	s := newTestStore(sim.NewEngine())
	f, _ := s.Create("a", 100)
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if h, err := f.FNV64a(); err == nil {
		t.Fatalf("hash of removed file = %#x, want an error", h)
	}
}

// BenchmarkFileFNV64aPhantom fingerprints a 1 MiB file that was never
// written, as a phantom-mode serve job's output is: the zero-tail fold
// makes it O(log size) with no allocation.
func BenchmarkFileFNV64aPhantom(b *testing.B) {
	s := newTestStore(sim.NewEngine())
	f, err := s.Create("out", device.MiB)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.FNV64a(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNVMStoreAllowed(t *testing.T) {
	e := sim.NewEngine()
	dev := device.New(e, device.NVMProfile(device.GiB))
	s := NewStore(dev) // must not panic: NVM-as-storage is a paper use case
	if _, err := s.Create("x", 10); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for DRAM-backed store")
		}
	}()
	e := sim.NewEngine()
	NewStore(device.New(e, device.DRAMProfile(device.GiB)))
}
