package experiments

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
)

// The paper's Section 7 method is one sentence — for each data point,
// replicate on fresh random networks until the confidence interval is tight —
// and this file is its one implementation. A figure or extension describes
// itself as panels → curves → cells and hands the description to
// RunConfig.figure, which measures every cell on one bounded worker pool;
// the drivers in figures.go, extensions.go, degradation.go, helloloss.go and
// restart.go only build cells.

// sampleFunc measures replication i of one cell. sink is the cell's trace
// export (nil when tracing is off); simulating cells run through sink.run so
// every replicate is exported.
type sampleFunc func(i int, sink *traceSink) (float64, error)

// cell is one data point of a figure. Its label keys everything outside the
// driver — progress updates, the trace file name, the grid cache address —
// so labels are unique within a figure and pinned by
// testdata/point_labels.golden.
type cell struct {
	label  string
	x      int
	sample sampleFunc
}

// curveSpec is one series of a panel: its legend label and its cells in X
// order.
type curveSpec struct {
	label string
	cells []cell
}

// panelSpec is one subplot: its title and its curves in legend order.
type panelSpec struct {
	title  string
	curves []curveSpec
}

// figure measures every cell of the described figure on one pool of
// Parallelism workers and assembles the result in panel → curve → cell order.
// Each cell is fully determined by its inputs, so the schedule never changes
// the results. Cells are dispatched in figure order and dispatch stops at the
// first failure, so the reported error is always that of the first failing
// cell in figure order.
func (rc RunConfig) figure(id, title, unit string, panels []panelSpec) (Figure, error) {
	var cells []cell
	for _, p := range panels {
		for _, cv := range p.curves {
			cells = append(cells, cv.cells...)
		}
	}
	if err := uniqueLabels(len(cells), func(j int) string { return cells[j].label }); err != nil {
		return Figure{}, err
	}

	sums := make([]stats.Summary, len(cells))
	errs := make([]error, len(cells))
	jobs := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(rc.Parallelism, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				// Each job owns its result and error slot.
				if sums[j], errs[j] = rc.measure(cells[j]); errs[j] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for j := range cells {
		if failed.Load() {
			break
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return Figure{}, fmt.Errorf("%s: %w", cells[j].label, err)
		}
	}

	fig := Figure{ID: id, Title: title, Unit: unit}
	j := 0
	for _, p := range panels {
		panel := Panel{Title: p.title}
		for _, cv := range p.curves {
			s := Series{Label: cv.label}
			for _, cl := range cv.cells {
				s.Points = append(s.Points, Point{X: cl.x, Mean: sums[j].Mean, CI: sums[j].HalfWidth90, Runs: sums[j].N})
				j++
			}
			panel.Series = append(panel.Series, s)
		}
		fig.Panels = append(fig.Panels, panel)
	}
	return fig, nil
}

// uniqueLabels rejects a sweep in which two of the n data points share a
// label: the second would overwrite the first's trace export and be served
// the first's result from the grid cache.
func uniqueLabels(n int, label func(j int) string) error {
	seen := make(map[string]bool, n)
	for j := 0; j < n; j++ {
		if seen[label(j)] {
			return fmt.Errorf("two data points labelled %q (sweep values that round to the same label)", label(j))
		}
		seen[label(j)] = true
	}
	return nil
}

// measure runs one cell: it opens the cell's trace export, replicates the
// sample through the Runner hook until the criterion is met, and publishes or
// discards the export according to the outcome.
func (rc RunConfig) measure(cl cell) (stats.Summary, error) {
	sink, err := rc.newTraceSink(cl.label)
	if err != nil {
		return stats.Summary{}, err
	}
	sum, err := rc.replicate(cl.label, func(i int) (float64, error) { return cl.sample(i, sink) })
	return sum, sink.finish(err)
}

// workload returns replication i's shared workload at (n, d) together with
// its seed. The seed excludes the variant, so replication i of every curve of
// a figure sees the same connected network and source (common random
// numbers), generated once in the workload cache.
func (rc RunConfig) workload(n, d, i int) (workload, int64, error) {
	seed := workloadSeed(rc.Seed, n, d, i)
	w, err := workloads.get(workloadKey{seed: seed, n: n, d: d})
	return w, seed, err
}

// workloadSeed derives a deterministic seed from the experiment inputs.
// The variant label is deliberately excluded so all series share workloads.
func workloadSeed(base int64, n, d, rep int) int64 {
	return deriveSeed("", base, n, d, rep)
}

// variant binds a legend label to a protocol factory and the simulator
// configuration that distinguishes the curve.
type variant struct {
	label string
	cfg   sim.Config
	make  func() sim.Protocol
}

// sizeCell is the paper's data point: the mean forward-node count of one
// variant at one (n, d), with delivery required to be total. prefix
// disambiguates the point across figures and panels.
func (rc RunConfig) sizeCell(prefix string, n, d int, v variant) cell {
	return cell{
		label: fmt.Sprintf("%s/%s/n=%d/d=%d", prefix, v.label, n, d),
		x:     n,
		sample: func(i int, sink *traceSink) (float64, error) {
			w, seed, err := rc.workload(n, d, i)
			if err != nil {
				return 0, err
			}
			cfg := v.cfg
			cfg.Seed = seed + 1
			res, err := sink.run(i, w, w.net.G, v.make(), cfg, nil)
			if err != nil {
				return 0, err
			}
			if !res.FullDelivery() {
				return 0, fmt.Errorf("%s delivered %d/%d (n=%d d=%d rep=%d)",
					v.label, res.Delivered, res.N, n, d, i)
			}
			return float64(res.ForwardCount()), nil
		},
	}
}

// sizePanel is the paper's subplot: one curve per variant, one sizeCell per
// configured network size.
func (rc RunConfig) sizePanel(prefix, title string, d int, variants []variant) panelSpec {
	return panelSpec{title: title, curves: curvesOf(variants, len(rc.Sizes), func(v variant, k int) cell {
		return rc.sizeCell(prefix+"/"+title, rc.Sizes[k], d, v)
	})}
}

// curvesOf builds one curve per variant with nx cells each; mk builds the
// k-th cell of a variant's curve.
func curvesOf(variants []variant, nx int, mk func(v variant, k int) cell) []curveSpec {
	curves := make([]curveSpec, len(variants))
	for vi, v := range variants {
		curves[vi].label = v.label
		for k := 0; k < nx; k++ {
			curves[vi].cells = append(curves[vi].cells, mk(v, k))
		}
	}
	return curves
}

// perDegree builds one panel per configured degree; titleFmt takes the
// degree as its one %d verb.
func (rc RunConfig) perDegree(titleFmt string, curves func(d int) []curveSpec) []panelSpec {
	panels := make([]panelSpec, len(rc.Degrees))
	for di, d := range rc.Degrees {
		panels[di] = panelSpec{title: fmt.Sprintf(titleFmt, d), curves: curves(d)}
	}
	return panels
}

// paramSweep builds and measures the figure shape the n=100 extension sweeps
// share: one "d=…, n=100, 2-hop" panel per degree, one curve per variant, one
// cell per swept parameter value x, labelled id/variant/axis=x/d=d. sample
// returns the sample function of the cell at xs[k].
func (rc RunConfig) paramSweep(id, title, unit, axis string, xs []int, variants []variant,
	sample func(v variant, d, k int) sampleFunc) (Figure, error) {
	return rc.figure(id, title, unit, rc.perDegree("d=%d, n=100, 2-hop", func(d int) []curveSpec {
		return curvesOf(variants, len(xs), func(v variant, k int) cell {
			return cell{
				label:  fmt.Sprintf("%s/%s/%s=%d/d=%d", id, v.label, axis, xs[k], d),
				x:      xs[k],
				sample: sample(v, d, k),
			}
		})
	}))
}

// percents converts sweep fractions to the integer percentages used as X
// values and in point labels (floats never enter either).
func percents(fracs []float64) []int {
	out := make([]int, len(fracs))
	for k, f := range fracs {
		out[k] = int(math.Round(100 * f))
	}
	return out
}
