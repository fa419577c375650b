package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
)

// fixedPoint is one data point of a fixed-replication sweep (Scale, Load):
// unlike a figure cell it runs a set number of replicates, each measuring
// every variant on one freshly generated workload, and yields one row per
// variant. R is the sweep's row type.
type fixedPoint[R any] struct {
	// label keys the point for the Runner hook (the grid cache address).
	label string
	reps  int
	// replicate measures replication rep of every variant, returning one
	// metric vector per variant. arena belongs to the calling worker.
	replicate func(rep int, arena *sim.Arena) ([][]float64, error)
	// row assembles variant vi's row from its per-metric summaries.
	row func(vi int, metrics []stats.Summary) R
}

// runFixed is the point loop of the fixed-replication sweeps: points run
// strictly in order, each through the runner hook when one is set, and every
// completed row is emitted — outside compute, so streaming consumers see
// substituted rows too — before the next point begins.
func runFixed[R any](points []fixedPoint[R], parallelism int,
	runner func(point string, compute func() ([]R, error)) ([]R, error), emit func(R)) ([]R, error) {
	if err := uniqueLabels(len(points), func(k int) string { return points[k].label }); err != nil {
		return nil, err
	}
	if runner == nil {
		runner = func(_ string, compute func() ([]R, error)) ([]R, error) { return compute() }
	}
	var rows []R
	for _, p := range points {
		pointRows, err := runner(p.label, func() ([]R, error) { return p.measure(parallelism) })
		if err != nil {
			return nil, err
		}
		for _, row := range pointRows {
			rows = append(rows, row)
			if emit != nil {
				emit(row)
			}
		}
	}
	return rows, nil
}

// measure runs the point's replicates on up to parallelism workers — each
// holding one borrowed simulator arena, so the hot state (event calendar,
// flat node states, views, scratch) is reused across the worker's replicates
// and one generated network is alive per worker at a time — and folds them
// into one row per variant.
func (p fixedPoint[R]) measure(parallelism int) ([]R, error) {
	samples := make([][][]float64, p.reps)
	errs := make([]error, p.reps)
	reps := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(parallelism, p.reps); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := arenas.Get().(*sim.Arena)
			defer arenas.Put(arena)
			for rep := range reps {
				samples[rep], errs[rep] = p.replicate(rep, arena)
			}
		}()
	}
	for rep := 0; rep < p.reps; rep++ {
		reps <- rep
	}
	close(reps)
	wg.Wait()
	for rep, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s rep=%d: %w", p.label, rep, err)
		}
	}

	// Fold in replicate order so the rows are bit-identical for any worker
	// count.
	rows := make([]R, len(samples[0]))
	for vi := range rows {
		metrics := make([]stats.Summary, len(samples[0][vi]))
		for m := range metrics {
			var acc stats.Accumulator
			for rep := range samples {
				acc.Add(samples[rep][vi][m])
			}
			metrics[m] = acc.Summary()
		}
		rows[vi] = p.row(vi, metrics)
	}
	return rows, nil
}

// rowWriter returns the Emit hook that lays a fixed-replication sweep's rows
// out on w as they arrive: whenever a row starts a new point (key changes) a
// heading, preceded by a blank line unless it is the first, then every row
// indented on a line of its own. An Emit hook returns nothing, so write
// errors are dropped; the grid's table buffers have none.
func rowWriter[R any, K comparable](w io.Writer, key func(R) K, heading, line func(R) string) func(R) {
	started := false
	var last K
	return func(r R) {
		if k := key(r); !started || k != last {
			if started {
				io.WriteString(w, "\n")
			}
			io.WriteString(w, heading(r))
			started, last = true, k
		}
		io.WriteString(w, "  "+line(r)+"\n")
	}
}

// foldRows renders rows through a fresh row writer into a string.
func foldRows[R any](rows []R, writer func(io.Writer) func(R)) string {
	var b strings.Builder
	emit := writer(&b)
	for _, r := range rows {
		emit(r)
	}
	return b.String()
}

// HalfWidth is a 90% confidence half-width in a result row. One replicate
// has no interval: stats reports +Inf, which a row renders "±n/a" and JSON
// (which has no infinities) carries as null, so a cached row decodes as it was.
type HalfWidth float64

// MarshalJSON encodes +Inf as null.
func (h HalfWidth) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(h), 1) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(h))
}

// UnmarshalJSON decodes null as +Inf.
func (h *HalfWidth) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*h = HalfWidth(math.Inf(1))
		return nil
	}
	return json.Unmarshal(data, (*float64)(h))
}

// pm renders the "±half-width" column of a fixed-replication row to prec
// decimals; a one-replicate row has no interval: "±n/a".
func pm(halfWidth HalfWidth, prec int) string {
	if math.IsInf(float64(halfWidth), 1) {
		return "±n/a"
	}
	return "±" + strconv.FormatFloat(float64(halfWidth), 'f', prec, 64)
}
