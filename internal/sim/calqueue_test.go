package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// calQueueMatchesHeap drives one calendar queue and one binary heap through
// an identical random interleaving of pushes and pops shaped like a
// simulation workload — same-instant batches, zero-delay timers, unit
// transmit delays, backoff multiples, and fractional jitter — and reports
// whether every pop agreed on (at, seq). Pushes respect the simulator's
// monotone-time invariant (an event is never scheduled before the last
// popped instant), which is the only contract the calendar queue requires.
//
// In sorted mode the workload has no jitter or backoff, only zero-delay
// timers and unit delays, with ten times the steps, so every day holds one
// instant and its pushes arrive in (at, seq) order through long drains: the
// queue must then pop every day from its head, never turning one into a heap.
func calQueueMatchesHeap(t *testing.T, seed int64, sorted bool) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	width := []float64{1, 0.5, 2.5}[rng.Intn(3)]
	steps, shapes := 400, 4
	if sorted {
		steps, shapes = 4000, 2
	}
	var cal calQueue
	var bin eventQueue
	// Two rounds through the same calendar queue exercise reset and the
	// bucket freelist, not just a pristine instance.
	for round := 0; round < 2; round++ {
		cal.reset(width)
		bin = bin[:0]
		now := 0.0
		seq := 0
		for step := 0; step < steps; step++ {
			if cal.size > 0 && rng.Intn(3) == 0 {
				a := cal.pop()
				b := heap.Pop(&bin).(*event)
				if a.at != b.at || a.seq != b.seq || a.at < now {
					return false
				}
				now = a.at
				continue
			}
			var at float64
			switch rng.Intn(shapes) {
			case 0:
				at = now // zero-delay timer
			case 1:
				at = now + width // unit transmit delay
			case 2:
				at = now + float64(rng.Intn(8))*width // backoff multiple
			default:
				at = now + rng.Float64()*width*3 // jittered arrival
			}
			// Same-instant batches of 1-3 events, like one transmission
			// fanning out to several neighbors.
			for k := 1 + rng.Intn(3); k > 0; k-- {
				seq++
				e := event{at: at, seq: seq, node: int32(seq % 7)}
				cal.push(e)
				ec := e
				heap.Push(&bin, &ec)
			}
			if sorted && cal.days[int(at/width)].heap {
				return false
			}
		}
		for cal.size > 0 {
			a := cal.pop()
			b := heap.Pop(&bin).(*event)
			if a.at != b.at || a.seq != b.seq {
				return false
			}
		}
		if bin.Len() != 0 {
			return false
		}
	}
	return true
}

// TestCalQueueMatchesHeapQuick property-checks the calendar queue against
// the oracle binary heap: identical (at, seq) pop order over random
// push/pop interleavings, with jitter and backoff and in sorted mode.
func TestCalQueueMatchesHeapQuick(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		f := func(seed int64) bool { return calQueueMatchesHeap(t, seed, sorted) }
		cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(41))}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("sorted=%v: %v", sorted, err)
		}
	}
}

// FuzzCalQueueMatchesHeap is the fuzz form of the same equivalence for
// deeper exploration with `go test -fuzz=CalQueue ./internal/sim/`.
func FuzzCalQueueMatchesHeap(f *testing.F) {
	for _, s := range []int64{0, 1, 42, -7, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, sorted := range []bool{false, true} {
			if !calQueueMatchesHeap(t, seed, sorted) {
				t.Fatalf("calendar queue diverged from binary heap (seed %d, sorted %v)", seed, sorted)
			}
		}
	})
}

// TestCalQueueBoundaryClamp pins the defensive clamp directly: a push whose
// day quotient lands below the current bucket (unreachable through the
// public workflow, guarded against float-division surprises) files into the
// current bucket and still pops in exact (at, seq) order, because its
// timestamp is below everything the later buckets hold.
func TestCalQueueBoundaryClamp(t *testing.T) {
	var q calQueue
	q.reset(1.0)
	q.cur = 3 // as if time had advanced into day 3
	q.push(event{at: 3.5, seq: 1})
	q.push(event{at: 2.9, seq: 2}) // day 2 < cur: clamped into bucket 3
	q.push(event{at: 4.5, seq: 3})
	q.push(event{at: 2.9, seq: 4})
	q.push(event{at: 3.5, seq: 5})
	want := []int{2, 4, 1, 5, 3}
	for i, w := range want {
		if e := q.pop(); e.seq != w {
			t.Fatalf("pop %d: seq = %d, want %d", i, e.seq, w)
		}
	}
	if q.size != 0 {
		t.Fatalf("size = %d after draining", q.size)
	}
}

// popSeqs pops k events from q and returns their sequence numbers.
func popSeqs(q *calQueue, k int) []int {
	var out []int
	for ; k > 0; k-- {
		out = append(out, q.pop().seq)
	}
	return out
}

// TestCalQueueSortedDayTurnsHeap pins the switch of a sorted day: pushes in
// (at, seq) order pop from the head, and the first out-of-order push in the
// middle of the drain turns the unpopped rest into a heap, which keeps
// popping in exact (at, seq) order and starts over sorted once drained.
func TestCalQueueSortedDayTurnsHeap(t *testing.T) {
	var q calQueue
	q.reset(1.0)
	for i, at := range []float64{3.0, 3.0, 3.5, 3.9} {
		q.push(event{at: at, seq: i + 1})
	}
	if got := popSeqs(&q, 2); !slices.Equal(got, []int{1, 2}) || q.days[3].heap {
		t.Fatalf("sorted day popped %v (heap %v), want [1 2] from its head", got, q.days[3].heap)
	}
	q.push(event{at: 3.2, seq: 5}) // before 3.9: out of order
	q.push(event{at: 3.9, seq: 6})
	q.push(event{at: 3.5, seq: 7})
	if d := q.days[3]; !d.heap || d.head != 0 || len(d.ev) != 5 {
		t.Fatalf("after an out-of-order push the day is heap %v, head %d, %d events; want a 5-event heap", d.heap, d.head, len(d.ev))
	}
	if got := popSeqs(&q, 5); !slices.Equal(got, []int{5, 3, 7, 4, 6}) {
		t.Fatalf("heap day popped %v, want [5 3 7 4 6]", got)
	}
	q.push(event{at: 3.9, seq: 8}) // the drained day starts over sorted
	q.push(event{at: 3.9, seq: 9})
	if q.days[3].heap {
		t.Fatal("a drained heap day did not start over sorted")
	}
	if got := popSeqs(&q, 2); !slices.Equal(got, []int{8, 9}) || q.size != 0 {
		t.Fatalf("popped %v with %d left, want [8 9] and none", got, q.size)
	}
}

// TestCalQueueClampDuringSortedDrain is TestCalQueueBoundaryClamp in the
// middle of a sorted drain: a clamped push files into the current day ahead
// of its unpopped events, and pops first.
func TestCalQueueClampDuringSortedDrain(t *testing.T) {
	var q calQueue
	q.reset(1.0)
	q.cur = 3 // as if time had advanced into day 3
	for i, at := range []float64{3.0, 3.5, 3.7} {
		q.push(event{at: at, seq: i + 1})
	}
	if got := popSeqs(&q, 1); !slices.Equal(got, []int{1}) {
		t.Fatalf("popped %v, want [1]", got)
	}
	q.push(event{at: 2.9, seq: 4}) // day 2 < cur: clamped into bucket 3
	q.push(event{at: 4.5, seq: 5})
	q.push(event{at: 3.5, seq: 6})
	if got := popSeqs(&q, 5); !slices.Equal(got, []int{4, 2, 6, 3, 5}) || q.size != 0 {
		t.Fatalf("popped %v with %d left, want [4 2 6 3 5] and none", got, q.size)
	}
}

// TestCalQueueResetHalfDrainedSortedDay resets a queue in the middle of a
// sorted day's drain: every bucket goes back to the freelist, the push count
// starts over, and the next run pops in (at, seq) order. What a recycled
// bucket still holds pins nothing, since an event holds no pointer
// (TestStateFootprint).
func TestCalQueueResetHalfDrainedSortedDay(t *testing.T) {
	var q calQueue
	q.reset(1.0)
	for i := 0; i < 6; i++ {
		q.push(event{at: 2, seq: i + 1, pkt: int32(i)})
		q.push(event{at: 3, seq: i + 7, pkt: int32(i)})
	}
	if got := popSeqs(&q, 3); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("popped %v, want [1 2 3]", got)
	}
	if q.pushes != 12 {
		t.Fatalf("counted %d pushes, want 12", q.pushes)
	}
	q.reset(1.0)
	if q.size != 0 || len(q.days) != 0 || q.pushes != 0 || len(q.free) != 2 {
		t.Fatalf("reset left %d events over %d days, %d pushes, %d free buckets; want none and 2",
			q.size, len(q.days), q.pushes, len(q.free))
	}
	for i, at := range []float64{1, 0, 1, 0} {
		q.push(event{at: at, seq: i + 1})
	}
	if got := popSeqs(&q, 4); !slices.Equal(got, []int{2, 4, 1, 3}) || q.size != 0 {
		t.Fatalf("after reset popped %v with %d left, want [2 4 1 3] and none", got, q.size)
	}
}
