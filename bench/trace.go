package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that was
// open when this one began (-1 at the top); spans of one operation share Op.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Probe marks a standalone unit-cost measurement: its time is a cost per
	// call, not a share of the workload, and is not additive with the rest.
	Probe bool `json:"probe,omitempty"`
}

// tracer keeps spans in memory until the run ends. Replays are sequential,
// so the open spans form a stack and the parent is its top. A nil tracer
// records nothing, which is how the end-to-end runs keep tracing off.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op int, probe bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Op: op, Probe: probe})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// span times fn under a span of the workload's path.
func (r *run) span(name string, op int, fn func()) {
	id := r.tr.begin(name, op, false)
	fn()
	r.tr.end(id)
}

// probe times fn under a span marked as a standalone unit-cost measurement
// and returns its duration.
func (r *run) probe(name string, fn func()) time.Duration {
	id := r.tr.begin(name, 0, true)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.tr.end(id)
	return d
}

// mark returns the position new spans will be appended at, so a replay can
// aggregate only its own spans when several share one tracer.
func (t *tracer) mark() int { return len(t.spans) }

// selfTime sums, by span name over spans[from:], each span's duration minus
// the part its child spans cover: the time spent in that layer itself.
func (t *tracer) selfTime(from int) map[string]time.Duration {
	child := make(map[int]int64) // span id -> time covered by its children
	for _, s := range t.spans[from:] {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans[from:] {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{Schema: reportSchema, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 50000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("cost", i, false))
	}
	return time.Since(start) / n
}

// allocs runs fn and returns the heap objects and bytes it allocated.
// ReadMemStats stops the world, so callers keep it outside their spans.
func allocs(fn func()) (objects, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
