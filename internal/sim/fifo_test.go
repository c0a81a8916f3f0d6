package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// TestFIFOMatchesSliceQueue drives the head-indexed fifo and a plain
// shifting slice queue through the same random push/pop/reset sequence and
// requires identical pops, lengths and live views at every step.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	f := func(ops []uint8) bool {
		var q fifo[int]
		var ref []int
		next := 0
		for _, op := range ops {
			switch {
			case op < 150: // push-heavy mix so queues grow and compact
				q.push(next)
				ref = append(ref, next)
				next++
			case op < 250:
				if len(ref) == 0 {
					if !q.empty() {
						return false
					}
					continue
				}
				want := ref[0]
				ref = ref[1:]
				if got := q.pop(); got != want {
					return false
				}
			default:
				q.reset()
				ref = nil
			}
			if q.len() != len(ref) || q.empty() != (len(ref) == 0) {
				return false
			}
			if live := q.live(); len(ref) > 0 && !reflect.DeepEqual(live, ref) {
				return false
			}
			// Compaction keeps the backing array proportional to the live
			// length: the head never passes half of it.
			if q.head > 0 && 2*q.head >= len(q.items) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
