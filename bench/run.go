package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed the goldens under golden/ were recorded at.
const defaultSeed = 42

// metric is one measured value with its unit, as the result object carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is what a workload run leaves in out/<workload>.trace<0|1>.json: the
// result object plus what the contract's four keys have no room for.
type detail struct {
	result
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     int64  `json:"seed"`
	// Extra holds workload-specific readings that are not metrics of
	// BENCHMARK.json (cold/warm splits, sample counts).
	Extra map[string]metric `json:"extra,omitempty"`
	// Source names, for a traced run, the replay each per-layer metric was
	// measured in: "<workload>/full" or "<workload>/toy".
	Source map[string]string `json:"source,omitempty"`
	// Notes lists every failed correctness check.
	Notes []string `json:"notes,omitempty"`
	// SpanFile is the trace file of a traced run, relative to bench/.
	SpanFile string `json:"span_file,omitempty"`
}

// print writes every metric by name with its unit, then the failed checks.
func (d *detail) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", d.Workload, d.Seed, d.Traced)
	printMetrics(w, d.Metrics, d.Source)
	if len(d.Extra) > 0 {
		fmt.Fprintln(w, "  -- not in BENCHMARK.json --")
		printMetrics(w, d.Extra, nil)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", d.Attempted, d.Failed, d.Correct)
	for _, n := range d.Notes {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", n)
	}
}

func printMetrics(w io.Writer, ms map[string]metric, source map[string]string) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "  %-40s %16.6g %-6s %s\n", name, m.Value, m.Unit, source[name])
	}
}

// run is the state of one workload run: its inputs, its scratch space, and
// what it has measured and checked so far.
type run struct {
	ctx      context.Context
	dirs     dirs
	spec     *benchSpec
	workload string
	seed     int64
	// budget is --seconds: timed loops start another unit of work only
	// while the next one is expected to end inside it.
	budget       time.Duration
	sz           sizes
	updateGolden bool
	tmp          string // scratch directory under out/, removed at exit
	tr           *tracer

	// peaks holds the peak resident set of each unit of work (see unit).
	peaks []float64

	vals      map[string]float64
	source    map[string]string
	extra     map[string]metric
	attempted int
	failed    int
	notes     []string
}

func newRun(ctx context.Context, d dirs, spec *benchSpec, workload string, seed int64, budget time.Duration, sz sizes) *run {
	return &run{
		ctx: ctx, dirs: d, spec: spec, workload: workload, seed: seed, budget: budget, sz: sz,
		vals: map[string]float64{}, source: map[string]string{}, extra: map[string]metric{},
	}
}

// set records a metric of BENCHMARK.json; its unit comes from that file.
func (r *run) set(name string, v float64) {
	r.vals[name] = v
	r.source[name] = r.workload + "/full"
	if r.sz.Toy {
		r.source[name] = r.workload + "/toy"
	}
}

// setExtra records a reading outside BENCHMARK.json.
func (r *run) setExtra(name string, v float64, unit string) {
	r.extra[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation and whether it failed.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records a failed correctness check; the run then reports
// correct=false and the command exits non-zero after printing its metrics.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// more reports whether a timed loop should start unit number done (0-based):
// always the first min units, then only while the next unit — assumed to
// take as long as the slowest so far — still ends inside the budget.
func (r *run) more(start time.Time, done, min int, slowest time.Duration) bool {
	if r.ctx.Err() != nil {
		return false
	}
	if done < min {
		return true
	}
	return time.Since(start)+slowest <= r.budget
}

// unit runs one unit of timed work and records the process's peak memory
// while it ran. Every unit starts from a collected, scavenged heap with the
// kernel's high-water mark reset, so units are comparable and peak_rss_mb can
// be their median: the lifetime peak of a process is a maximum over however
// many units happened to fit the budget, and GC timing alone moved it by a
// third from run to run.
func (r *run) unit(fn func() error) error {
	resetPeakRSS()
	err := fn()
	r.peaks = append(r.peaks, peakRSSMB("self"))
	return err
}

// tempDir returns a fresh scratch directory under out/, removed at exit.
func (r *run) tempDir(prefix string) (string, error) {
	if r.tmp == "" {
		if err := os.MkdirAll(r.dirs.out, 0o755); err != nil {
			return "", err
		}
		tmp, err := os.MkdirTemp(r.dirs.out, "tmp-"+r.workload+"-")
		if err != nil {
			return "", err
		}
		r.tmp = tmp
		atExit(func() { os.RemoveAll(tmp) })
	}
	return os.MkdirTemp(r.tmp, prefix+"-")
}

// golden compares got with golden/<name> when the run is at the default seed
// and full sizes (the only configuration the goldens describe), or rewrites
// the file under -update-golden. A perf-only change must leave every
// simulated statistic identical, so any difference fails the run.
func (r *run) golden(name string, got []byte) {
	if r.seed != defaultSeed || r.sz.Toy {
		return
	}
	path := filepath.Join(r.dirs.bench, "golden", name)
	if r.updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, got, 0o644)
			r.check(err == nil, "golden %s: %v", name, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		r.check(false, "golden %s: %v", name, err)
		return
	}
	r.check(bytes.Equal(got, want), "golden %s: simulated results differ from the recorded ones (%d bytes, want %d)", name, len(got), len(want))
}

// finish assembles the run's detail: every metric the trace mode requires
// must have been measured, and nothing else may have been.
func (r *run) finish(traced bool) (*detail, error) {
	d := &detail{
		Workload: r.workload, Traced: traced, Seed: r.seed,
		Extra: r.extra, Notes: r.notes,
	}
	d.Metrics = make(map[string]metric)
	want := r.spec.metrics(traced)
	for _, ms := range want {
		v, ok := r.vals[ms.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", r.workload, ms.Name)
		}
		d.Metrics[ms.Name] = metric{Value: v, Unit: ms.Unit}
	}
	for name := range r.vals {
		if _, ok := d.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s: measured %s, which BENCHMARK.json does not name for trace=%v", r.workload, name, traced)
		}
	}
	if traced {
		d.Source = r.source
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", r.workload)
	}
	d.Attempted, d.Failed = r.attempted, r.failed
	d.Correct = len(r.notes) == 0 && r.failed == 0
	return d, nil
}

// workload is one row of the benchmark: measure produces the end-to-end
// metrics with tracing off; replay drives the same pipeline step by step
// under spans and produces the per-layer metrics of the layers on its path.
type workload struct {
	name    string
	measure func(*run) error
	replay  func(*run) error
}

// workloads lists the six workloads in BENCHMARK.json order.
var workloads = []workload{
	{"paper_fig10", measurePaper, replayPaper},
	{"scale_200k", measureScale, replayScale},
	{"load_knee", measureLoad, replayLoad},
	{"grid_tables", measureGrid, replayGrid},
	{"live_fleet", measureFleet(false), replayFleet(false)},
	{"live_fleet_journal", measureFleet(true), replayFleet(true)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload in this process and writes its detail file.
//
// A traced run replays the chosen workload at full size and every other
// workload at toy size, so that each per-layer metric of BENCHMARK.json is a
// real measurement in every run: a layer on the chosen workload's path is
// read at that workload's shape, a layer off its path at the toy shape of
// the first workload that exercises it. Source records which.
func runWorkload(r *run, traced bool) (*detail, error) {
	w, ok := findWorkload(r.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", r.workload)
	}
	if !traced {
		if err := w.measure(r); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if _, ok := r.vals["peak_rss_mb"]; !ok {
			r.set("peak_rss_mb", median(r.peaks))
		}
		return r.save(false)
	}

	r.tr = newTracer()
	r.tr.workload = w.name
	start := time.Now()
	if err := w.replay(r); err != nil {
		return nil, fmt.Errorf("%s replay: %w", w.name, err)
	}
	wall := time.Since(start)
	// Spans are bench code around the calls, so an untraced replay differs
	// from this one by exactly the span bookkeeping; its cost is measured
	// directly and scaled by the number of spans recorded.
	cost := time.Duration(len(r.tr.spans)) * spanCost()
	r.set("bench.trace_overhead_ratio", float64(wall)/float64(wall-cost))
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		sub := newRun(r.ctx, r.dirs, r.spec, other.name, r.seed, 0, toy)
		sub.tr = r.tr
		sub.tr.workload = other.name
		if err := other.replay(sub); err != nil {
			return nil, fmt.Errorf("%s toy replay: %w", other.name, err)
		}
		for name, v := range sub.vals {
			if _, have := r.vals[name]; !have {
				r.vals[name] = v
				r.source[name] = sub.source[name]
			}
		}
		r.attempted += sub.attempted
		r.failed += sub.failed
		r.notes = append(r.notes, sub.notes...)
	}
	return r.save(true)
}

// save finishes the run and writes its detail (and span) files under out/.
func (r *run) save(traced bool) (*detail, error) {
	d, err := r.finish(traced)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.dirs.out, 0o755); err != nil {
		return nil, err
	}
	mode := 0
	if traced {
		mode = 1
		d.SpanFile = filepath.Join("out", "trace-"+r.workload+".json")
		if err := r.tr.write(filepath.Join(r.dirs.bench, d.SpanFile)); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return d, os.WriteFile(detailPath(r.dirs, r.workload, mode), append(data, '\n'), 0o644)
}

func detailPath(d dirs, workload string, trace int) string {
	return filepath.Join(d.out, fmt.Sprintf("%s.trace%d.json", workload, trace))
}
