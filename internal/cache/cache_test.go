package cache

import (
	"testing"
	"testing/quick"
)

// fill commits a ready entry for k holding val.
func fill(t *testing.T, p *Pool, k Key, val any) *Entry {
	t.Helper()
	e, err := p.StartFetch(k, "pending")
	if err != nil {
		t.Fatalf("StartFetch(%v): %v", k, err)
	}
	if !p.Commit(e, val) {
		t.Fatalf("Commit(%v) reported doomed", k)
	}
	p.CheckInvariants()
	return e
}

func TestGetHitAndMiss(t *testing.T) {
	p := New(100)
	k := Key{Src: 1, Off: 0, Len: 40}
	if p.Get(k) != nil {
		t.Fatal("hit on empty pool")
	}
	fill(t, p, k, "a")
	e := p.Get(k)
	if e == nil || e.Value() != "a" {
		t.Fatalf("expected ready entry holding a, got %+v", e)
	}
	if p.Used() != 40 || p.Len() != 1 {
		t.Fatalf("used=%d len=%d", p.Used(), p.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := New(100)
	a := Key{Src: 1, Off: 0, Len: 40}
	b := Key{Src: 1, Off: 40, Len: 40}
	fill(t, p, a, "a")
	fill(t, p, b, "b")
	p.Get(a) // bump a: b is now least recently used

	victims, ok := p.EvictFor(40)
	if !ok || len(victims) != 1 || victims[0] != "b" {
		t.Fatalf("expected to evict b, got %v ok=%v", victims, ok)
	}
	if p.Get(b) != nil {
		t.Fatal("evicted entry still visible")
	}
	if p.Get(a) == nil {
		t.Fatal("recently used entry evicted")
	}
	p.CheckInvariants()
}

func TestPinBlocksEviction(t *testing.T) {
	p := New(80)
	a := Key{Src: 1, Off: 0, Len: 40}
	b := Key{Src: 1, Off: 40, Len: 40}
	ea := fill(t, p, a, "a")
	fill(t, p, b, "b")
	p.Pin(ea)
	p.Get(b) // a is LRU but pinned

	victims, ok := p.EvictFor(40)
	if !ok || len(victims) != 1 || victims[0] != "b" {
		t.Fatalf("eviction should skip pinned a and take b, got %v ok=%v", victims, ok)
	}
	// Only the pinned entry remains: nothing more is evictable.
	if _, ok := p.EvictFor(41); ok {
		t.Fatal("eviction succeeded with only a pinned entry left")
	}
	if free := p.Unpin(ea); free != nil {
		t.Fatalf("unpin of live entry returned %v to free", free)
	}
	if _, ok := p.EvictFor(41); !ok {
		t.Fatal("eviction still blocked after unpin")
	}
	p.CheckInvariants()
}

func TestStartFetchRules(t *testing.T) {
	p := New(100)
	k := Key{Src: 1, Off: 0, Len: 40}
	if _, err := p.StartFetch(Key{Src: 1, Off: 0, Len: 200}, "x"); err == nil {
		t.Fatal("fetch larger than the pool accepted")
	}
	e, err := p.StartFetch(k, "latch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartFetch(k, "latch2"); err == nil {
		t.Fatal("double fetch of one key accepted")
	}
	got := p.Get(k)
	if got == nil || got.Ready() || got.Pending() != "latch" {
		t.Fatalf("in-flight entry not surfaced: %+v", got)
	}
	// In-flight entries are reserved but never evicted.
	if _, ok := p.EvictFor(80); ok {
		t.Fatal("evicted through an in-flight entry")
	}
	p.Abort(e)
	if p.Get(k) != nil || p.Used() != 0 {
		t.Fatalf("abort left state: used=%d", p.Used())
	}
	if _, err := p.StartFetch(k, "latch3"); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	p.CheckInvariants()
}

func TestEvictOne(t *testing.T) {
	p := New(100)
	fill(t, p, Key{Src: 1, Off: 0, Len: 40}, "a")
	fill(t, p, Key{Src: 1, Off: 40, Len: 40}, "b")
	v, ok := p.EvictOne()
	if !ok || v != "a" {
		t.Fatalf("expected LRU a, got %v ok=%v", v, ok)
	}
	v, ok = p.EvictOne()
	if !ok || v != "b" {
		t.Fatalf("expected b, got %v ok=%v", v, ok)
	}
	if _, ok = p.EvictOne(); ok {
		t.Fatal("evicted from empty pool")
	}
	p.CheckInvariants()
}

func TestInvalidateRangeOverlap(t *testing.T) {
	p := New(1000)
	a := Key{Src: 7, Off: 0, Len: 100}
	b := Key{Src: 7, Off: 100, Len: 100}
	c := Key{Src: 8, Off: 0, Len: 100} // different source
	fill(t, p, a, "a")
	fill(t, p, b, "b")
	fill(t, p, c, "c")

	// Write [50, 120) of source 7: overlaps a and b, not c.
	victims, doomed := p.InvalidateRange(7, 50, 70)
	if len(victims) != 2 || doomed != 0 {
		t.Fatalf("victims=%v doomed=%d", victims, doomed)
	}
	if p.Get(a) != nil || p.Get(b) != nil {
		t.Fatal("invalidated entries still visible")
	}
	if p.Get(c) == nil {
		t.Fatal("unrelated source invalidated")
	}
	// Adjacent (non-overlapping) write leaves c alone.
	if victims, _ := p.InvalidateRange(8, 100, 50); len(victims) != 0 {
		t.Fatalf("adjacent write invalidated %v", victims)
	}
	p.CheckInvariants()
}

func TestInvalidatePinnedDooms(t *testing.T) {
	p := New(100)
	k := Key{Src: 1, Off: 0, Len: 40}
	e := fill(t, p, k, "a")
	p.Pin(e)
	victims, doomed := p.InvalidateRange(1, 0, 100)
	if len(victims) != 0 || doomed != 1 {
		t.Fatalf("victims=%v doomed=%d", victims, doomed)
	}
	if p.Get(k) != nil {
		t.Fatal("doomed entry still visible")
	}
	if p.Used() != 40 {
		t.Fatal("doomed-but-pinned entry lost its accounting early")
	}
	// The last unpin hands the buffer back for freeing.
	if free := p.Unpin(e); free != "a" {
		t.Fatalf("unpin returned %v", free)
	}
	if p.Used() != 0 {
		t.Fatalf("used=%d after doomed entry freed", p.Used())
	}
	p.CheckInvariants()
}

func TestInvalidateInFlightDooms(t *testing.T) {
	p := New(100)
	k := Key{Src: 1, Off: 0, Len: 40}
	e, err := p.StartFetch(k, "latch")
	if err != nil {
		t.Fatal(err)
	}
	if _, doomed := p.InvalidateRange(1, 0, 40); doomed != 1 {
		t.Fatal("in-flight entry not doomed")
	}
	if p.Get(k) != nil {
		t.Fatal("doomed in-flight entry still visible")
	}
	// Commit of a doomed fetch hands the buffer back to the fetcher.
	if p.Commit(e, "a") {
		t.Fatal("doomed commit became visible")
	}
	if p.Used() != 0 || p.Len() != 0 {
		t.Fatalf("used=%d len=%d after doomed commit", p.Used(), p.Len())
	}
	p.CheckInvariants()
}

func TestZeroCapacityPool(t *testing.T) {
	p := New(0)
	if _, err := p.StartFetch(Key{Src: 1, Off: 0, Len: 1}, "x"); err == nil {
		t.Fatal("zero-capacity pool accepted a fetch")
	}
}

// TestOnChangeFiresExactlyOnVisibilityFlips drives a small pool through
// random StartFetch/Commit/Abort/Pin/Unpin/EvictFor/EvictOne/InvalidateRange
// sequences — doomed in-flight and doomed pinned entries included — and
// requires the hook to fire once for each key whose Peek flipped between
// nil and non-nil in that operation, and for no other key.
func TestOnChangeFiresExactlyOnVisibilityFlips(t *testing.T) {
	var keys []Key
	for src := int64(1); src <= 2; src++ {
		for off := int64(0); off < 40; off += 10 {
			keys = append(keys, Key{Src: src, Off: off, Len: 10}, Key{Src: src, Off: off, Len: 20})
		}
	}
	f := func(ops []uint16) bool {
		p := New(60)
		var fired []Key
		p.OnChange(func(k Key) { fired = append(fired, k) })
		var live []*Entry // entries started and not yet gone for good
		visible := func() map[Key]bool {
			m := map[Key]bool{}
			for _, k := range keys {
				if p.Peek(k) != nil {
					m[k] = true
				}
			}
			return m
		}
		pickLive := func(x uint16, want func(*Entry) bool) *Entry {
			var c []*Entry
			for _, e := range live {
				if want(e) {
					c = append(c, e)
				}
			}
			if len(c) == 0 {
				return nil
			}
			return c[int(x)%len(c)]
		}
		drop := func(e *Entry) {
			for i, x := range live {
				if x == e {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}
		for _, op := range ops {
			before := visible()
			fired = fired[:0]
			arg := op >> 3
			switch op % 8 {
			case 0, 1:
				if e, err := p.StartFetch(keys[int(arg)%len(keys)], "pending"); err == nil {
					live = append(live, e)
				}
			case 2:
				if e := pickLive(arg, func(e *Entry) bool { return !e.Ready() }); e != nil {
					if !p.Commit(e, "v") {
						drop(e)
					}
				}
			case 3:
				if e := pickLive(arg, func(e *Entry) bool { return !e.Ready() }); e != nil {
					p.Abort(e)
					drop(e)
				}
			case 4:
				if e := pickLive(arg, func(e *Entry) bool { return e.Ready() && !e.Doomed() }); e != nil {
					p.Pin(e)
				}
			case 5:
				if e := pickLive(arg, func(e *Entry) bool { return e.Pinned() }); e != nil {
					if p.Unpin(e) != nil {
						drop(e)
					}
				}
			case 6:
				if arg%2 == 0 {
					p.EvictOne()
				} else {
					p.EvictFor(int64(arg % 40))
				}
			case 7:
				src := int64(arg%2) + 1
				p.InvalidateRange(src, int64(arg/2%40), int64(arg/80%25))
			}
			// Drop entries that eviction or invalidation freed outright.
			for i := 0; i < len(live); {
				e := live[i]
				gone := e.Ready() && !e.Pinned() && (e.Doomed() || p.Peek(e.Key()) != e)
				if gone {
					live = append(live[:i], live[i+1:]...)
					continue
				}
				i++
			}
			p.CheckInvariants()
			after := visible()
			want := map[Key]int{}
			for _, k := range keys {
				if before[k] != after[k] {
					want[k] = 1
				}
			}
			got := map[Key]int{}
			for _, k := range fired {
				got[k]++
			}
			if len(got) != len(want) {
				t.Logf("op %d: fired %v, flipped %v", op%8, got, want)
				return false
			}
			for k, n := range got {
				if want[k] != n {
					t.Logf("op %d: fired %v, flipped %v", op%8, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
