package sim

// calQueue is the simulator's event queue: a bucketed calendar queue over
// value-typed, pointer-free events, one per scheduled action — a wireless
// broadcast is one eventTransmit, not one event per copy, so a forward costs
// the queue one push and one pop whatever the sender's degree. Events are bucketed by "day" — the integer quotient of
// their timestamp and the bucket width, which the simulator sets to the unit
// transmission delay. A day whose pushes arrived in (at, seq) order — every
// day of a run with unit delays and zero-delay timers only, where a day holds
// one instant — is a sorted slice popped from a head index in O(1). The
// first push that would break the order turns the rest of the day into a
// min-heap ordered by (at, seq), which it stays until it empties; a sorted
// slice is already a valid min-heap, so the pop order does not change.
// Backoff draws and jittered arrivals send their days to the heap at the
// cost of one comparison per push. Because simulation time never goes
// backwards, days are consumed strictly left to right; emptied bucket slices
// are recycled through a freelist, so steady-state operation allocates
// nothing, and since events hold no pointer, neither a popped slot nor a
// recycled bucket needs clearing.
//
// Ordering argument: int(at/width) is monotone in at, so day order refines
// time order across buckets, and within a bucket the sorted slice or the heap
// restores exact (at, seq) order. An event pushed with a timestamp whose day
// already passed (possible only for timestamps below the current bucket's
// lower boundary but >= now, e.g. zero-delay timers near a boundary) is
// clamped into the current day: its timestamp is <= every other queued
// event's, and the day orders it correctly, so the global pop order is still
// exactly the (at, seq) order a single heap would produce. The property/fuzz
// tests in calqueue_test.go pin this equivalence against the test-side binary
// heap (oracle_test.go).
type calQueue struct {
	width  float64   // bucket width (the unit transmission delay)
	days   []day     // days[d] holds the events in [d*width, (d+1)*width)
	cur    int       // first possibly non-empty day
	size   int       // total queued events
	pushes int       // events pushed since reset (read by the package's tests)
	free   [][]event // recycled empty bucket slices
}

// day is one bucket: ev[head:] in (at, seq) order while heap is false, else
// ev a min-heap by (at, seq) with head 0.
type day struct {
	ev   []event
	head int
	heap bool
}

// before reports whether a pops before b: (at, seq) order.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// reset prepares the queue for a new run, recycling every bucket slice.
func (q *calQueue) reset(width float64) {
	for d := q.cur; d < len(q.days); d++ {
		q.recycle(d)
	}
	q.days = q.days[:0]
	q.width = width
	q.cur = 0
	q.size = 0
	q.pushes = 0
}

// recycle returns day d's slice to the freelist.
func (q *calQueue) recycle(d int) {
	b := &q.days[d]
	if b.ev != nil {
		q.free = append(q.free, b.ev[:0])
	}
	*b = day{}
}

func (q *calQueue) takeBucket() []event {
	if n := len(q.free); n > 0 {
		b := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return b
	}
	return nil
}

// push inserts e. The event's timestamp must be >= the timestamp of the last
// popped event (simulation time is monotone).
func (q *calQueue) push(e event) {
	d := int(e.at / q.width)
	if d < q.cur {
		// Below the current bucket's boundary but still the earliest
		// pending timestamp; see the ordering argument above.
		d = q.cur
	}
	for d >= len(q.days) {
		q.days = append(q.days, day{ev: q.takeBucket()})
	}
	b := &q.days[d]
	q.size++
	q.pushes++
	if len(b.ev) == b.head { // drained: the day starts over, sorted
		b.ev, b.head, b.heap = b.ev[:0], 0, false
	}
	if !b.heap {
		if len(b.ev) == 0 || !before(&e, &b.ev[len(b.ev)-1]) {
			b.ev = append(b.ev, e)
			return
		}
		// Out of order: the unpopped rest of the day becomes a heap.
		n := copy(b.ev, b.ev[b.head:])
		b.ev, b.head, b.heap = b.ev[:n], 0, true
	}
	h := append(b.ev, e)
	// Sift up by (at, seq).
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	b.ev = h
}

// advance moves cur to the first non-empty day, recycling emptied buckets.
// Callers must ensure size > 0.
func (q *calQueue) advance() {
	for b := &q.days[q.cur]; len(b.ev) == b.head; b = &q.days[q.cur] {
		q.recycle(q.cur)
		q.cur++
	}
}

// peekTime returns the timestamp of the earliest event. Requires size > 0.
func (q *calQueue) peekTime() float64 {
	q.advance()
	b := &q.days[q.cur]
	return b.ev[b.head].at
}

// pop removes and returns the earliest event by (at, seq). Requires size > 0.
func (q *calQueue) pop() event {
	q.advance()
	q.size--
	b := &q.days[q.cur]
	if !b.heap {
		top := b.ev[b.head]
		b.head++
		return top
	}
	h := b.ev
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	// Sift down by (at, seq).
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && before(&h[l], &h[m]) {
			m = l
		}
		if r < last && before(&h[r], &h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	b.ev = h
	return top
}
