package sim

// calQueue is the simulator's event queue: a bucketed calendar queue over
// value-typed events. Events are bucketed by "day" — the integer quotient of
// their timestamp and the bucket width, which the simulator sets to the unit
// transmission delay — and each day holds a small min-heap ordered by
// (at, seq). Because simulation time never goes backwards, days
// are consumed strictly left to right; emptied bucket slices are recycled
// through a freelist, so steady-state operation allocates nothing.
//
// Ordering argument: int(at/width) is monotone in at, so day order refines
// time order across buckets, and the per-day heap restores exact (at, seq)
// order within a bucket. An event pushed with a timestamp whose day already
// passed (possible only for timestamps below the current bucket's lower
// boundary but >= now, e.g. zero-delay timers near a boundary) is clamped
// into the current day: its timestamp is <= every other queued event's, and
// the in-bucket heap orders it correctly, so the global pop order is still
// exactly the (at, seq) order a single heap would produce. The property/fuzz
// tests in calqueue_test.go pin this equivalence against the test-side binary
// heap (oracle_test.go).
type calQueue struct {
	width float64   // bucket width (the unit transmission delay)
	days  [][]event // days[d] = min-heap of events in [d*width, (d+1)*width)
	cur   int       // first possibly non-empty day
	size  int       // total queued events
	free  [][]event // recycled empty bucket slices
}

// reset prepares the queue for a new run, recycling every bucket slice.
func (q *calQueue) reset(width float64) {
	for d := q.cur; d < len(q.days); d++ {
		if b := q.days[d]; b != nil {
			for i := range b {
				b[i] = event{}
			}
			q.free = append(q.free, b[:0])
			q.days[d] = nil
		}
	}
	q.days = q.days[:0]
	q.width = width
	q.cur = 0
	q.size = 0
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
		q.days = append(q.days, q.takeBucket())
	}
	h := append(q.days[d], e)
	// Sift up by (at, seq).
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[i].at < h[p].at || (h[i].at == h[p].at && h[i].seq < h[p].seq) {
			h[i], h[p] = h[p], h[i]
			i = p
		} else {
			break
		}
	}
	q.days[d] = h
	q.size++
}

// advance moves cur to the first non-empty day, recycling emptied buckets.
// Callers must ensure size > 0.
func (q *calQueue) advance() {
	for len(q.days[q.cur]) == 0 {
		if b := q.days[q.cur]; b != nil {
			q.free = append(q.free, b)
			q.days[q.cur] = nil
		}
		q.cur++
	}
}

// peekTime returns the timestamp of the earliest event. Requires size > 0.
func (q *calQueue) peekTime() float64 {
	q.advance()
	return q.days[q.cur][0].at
}

// pop removes and returns the earliest event by (at, seq). Requires size > 0.
func (q *calQueue) pop() event {
	q.advance()
	h := q.days[q.cur]
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release packet references
	h = h[:last]
	// Sift down by (at, seq).
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && (h[l].at < h[m].at || (h[l].at == h[m].at && h[l].seq < h[m].seq)) {
			m = l
		}
		if r < last && (h[r].at < h[m].at || (h[r].at == h[m].at && h[r].seq < h[m].seq)) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	q.days[q.cur] = h
	q.size--
	return top
}
