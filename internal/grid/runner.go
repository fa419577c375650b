package grid

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"adhocbcast/internal/experiments"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/stats"
)

// Options configures a grid execution (Run, List, Verify).
type Options struct {
	// Spec is the grid to execute.
	Spec Spec
	// Cache holds the content-addressed point results and table manifests.
	Cache *Cache
	// OutDir is where generated tables are written (and where Verify looks
	// for them); default ".".
	OutDir string
	// Tables, when non-empty, restricts execution to the named outputs.
	Tables []string
	// RequireCached makes any cache miss an error instead of computing the
	// point — the mode grid-smoke uses to prove a rerun is all hits.
	RequireCached bool
	// ReplicateParallelism bounds concurrently evaluated replicates within a
	// data point (results are identical for any value); 0 selects each
	// driver's default: 1 for figures and extensions, GOMAXPROCS for the
	// scale and load sweeps.
	ReplicateParallelism int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o Options) outDir() string {
	if o.OutDir == "" {
		return "."
	}
	return o.OutDir
}

// tables returns the spec's tables the Tables filter selects (all when it is
// empty), in spec order. A name that is no table's output is an error that
// lists the valid ones, not an empty run.
func (o Options) tables() ([]TableSpec, error) {
	var sel []TableSpec
	var outputs []string
	for _, t := range o.Spec.Tables {
		outputs = append(outputs, t.Output)
		if len(o.Tables) == 0 || slices.Contains(o.Tables, t.Output) {
			sel = append(sel, t)
		}
	}
	for _, name := range o.Tables {
		if !slices.Contains(outputs, name) {
			return nil, fmt.Errorf("unknown table %q (valid: %s)", name, strings.Join(outputs, ", "))
		}
	}
	return sel, nil
}

// Stats counts the points a Run touched.
type Stats struct {
	// Points is the total number of grid points executed or served.
	Points int
	// Hits and Misses split Points by cache outcome.
	Hits, Misses int
}

// summaryPayload is the cached form of a CI-replicated point's result.
// float64 values survive the JSON round-trip exactly (Go encodes them in
// shortest round-tripping form), so a cached summary formats byte-identically
// to a freshly computed one.
type summaryPayload struct {
	N      int                   `json:"n"`
	Mean   float64               `json:"mean"`
	StdDev float64               `json:"stddev"`
	CI90   experiments.HalfWidth `json:"ci90"`
}

func payloadFrom(s stats.Summary) summaryPayload {
	return summaryPayload{N: s.N, Mean: s.Mean, StdDev: s.StdDev, CI90: experiments.HalfWidth(s.HalfWidth90)}
}

func (p summaryPayload) summary() stats.Summary {
	return stats.Summary{N: p.N, Mean: p.Mean, StdDev: p.StdDev, HalfWidth90: float64(p.CI90)}
}

// pointHandler resolves one grid point on behalf of a driver's Runner hook:
// it fills *dst — a pointer to the point's cached payload type — from the
// cache or by calling compute (which assigns *dst), or leaves it zero. The
// drivers invoke hooks concurrently, so a handler is safe for concurrent
// calls. Run and List differ only in their handler; Execute passes none.
type pointHandler func(cfg PointConfig, dst any, compute func() error) error

// fixedHook adapts a pointHandler to the Runner signature of a
// fixed-replication sweep (scale, load), whose points cache their rows. The
// point's canonical config comes from its label, which ends in the resolved
// degree and replicate count (the scale driver caps the count for the largest
// sizes); with the seed they pin the point. A nil handler is no hook: every
// point computes.
func fixedHook[R any](h pointHandler, experiment string, seed int64) func(string, func() ([]R, error)) ([]R, error) {
	if h == nil {
		return nil
	}
	return func(point string, compute func() ([]R, error)) ([]R, error) {
		cfg := PointConfig{Schema: PointSchema, Experiment: experiment, Point: point, Seed: seed}
		i := strings.LastIndex(point, "/d=")
		if i < 0 {
			return nil, fmt.Errorf("unparseable %s point label %q", experiment, point)
		}
		if _, err := fmt.Sscanf(point[i:], "/d=%d/reps=%d", &cfg.Degree, &cfg.Replicates); err != nil {
			return nil, fmt.Errorf("unparseable %s point label %q: %w", experiment, point, err)
		}
		var rows []R
		err := h(cfg, &rows, func() (err error) {
			rows, err = compute()
			return err
		})
		return rows, err
	}
}

// collector is Run's side of the caching hook: it serves points from the
// cache and gathers per-point outcomes for the table's manifest.
type collector struct {
	opts Options
	mu   sync.Mutex
	st   *Stats
	ents []manifestEntry
}

// serve is the get-or-compute-and-put pointHandler: a point whose cache file
// verifies is decoded into dst, any other is computed and stored (or, under
// RequireCached, reported as an error).
func (c *collector) serve(cfg PointConfig, dst any, compute func() error) error {
	hit, err := c.opts.Cache.Get(cfg, dst)
	if err != nil {
		return err
	}
	if !hit {
		if c.opts.RequireCached {
			return fmt.Errorf("point %q (%.12s…) not cached", cfg.Point, cfg.Hash())
		}
		if err := compute(); err != nil {
			return err
		}
		if err := c.opts.Cache.Put(cfg, dst); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Points++
	if hit {
		c.st.Hits++
	} else {
		c.st.Misses++
	}
	c.ents = append(c.ents, manifestEntry{Experiment: cfg.Experiment, Point: cfg.Point, Hash: cfg.Hash()})
	return nil
}

// resolve returns the experiment's effective seed and replication criterion —
// the values the driver will actually use, with every default filled in, so
// the PointConfig hash keys on real parameters rather than zeroes.
func (e ExperimentSpec) resolve() (int64, stats.ReplicateOptions) {
	seed := e.Seed
	if seed == 0 {
		seed = 42
	}
	if e.Paper {
		return seed, experiments.Paper()
	}
	return seed, experiments.Criterion(stats.ReplicateOptions{MinRuns: e.MinRuns, MaxRuns: e.MaxRuns, RelTol: e.RelTol})
}

// Run executes every selected table of the spec: each grid point is served
// from the cache when its content-addressed file verifies, computed and
// stored otherwise, and each completed table is written atomically to OutDir
// alongside a sealed provenance manifest in the cache. OutDir is created
// before the first point, so a run that could not write its tables fails
// before computing them.
func Run(opts Options) (Stats, error) {
	tables, err := opts.tables()
	if err != nil {
		return Stats{}, err
	}
	if err := os.MkdirAll(opts.outDir(), 0o755); err != nil {
		return Stats{}, fmt.Errorf("output directory: %w", err)
	}
	var st Stats
	for _, t := range tables {
		col := &collector{opts: opts, st: &st}
		var buf bytes.Buffer
		if err := runTable(&buf, t, experiments.RunConfig{ReplicateParallelism: opts.ReplicateParallelism}, nil, col.serve); err != nil {
			return st, fmt.Errorf("%s: %w", t.Output, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if err := opts.Cache.WriteManifest(t.Output, col.ents, hex.EncodeToString(sum[:])); err != nil {
			return st, fmt.Errorf("%s: manifest: %w", t.Output, err)
		}
		if err := obsv.WriteFileAtomic(filepath.Join(opts.outDir(), t.Output), buf.Bytes()); err != nil {
			return st, fmt.Errorf("%s: %w", t.Output, err)
		}
		opts.logf("%s: %d point(s)", t.Output, len(col.ents))
	}
	return st, nil
}

// Execute runs one table with no store — every point computes, no manifest
// is written — writing each section to w as it completes, the bytes Run
// writes for the same table. base carries what a spec cannot say (replicate
// parallelism, 0 meaning each driver's default; TraceDir; Progress); figure,
// when non-nil, receives each figure-type section's result once written.
func Execute(w io.Writer, t TableSpec, base experiments.RunConfig, figure func(experiments.Figure) error) error {
	return runTable(w, t, base, figure, nil)
}

// runTable validates every section of t, then runs them in order, writing
// each (its header first) to w as it completes. h resolves every data point;
// when nil, each point computes.
func runTable(w io.Writer, t TableSpec, base experiments.RunConfig, figure func(experiments.Figure) error, h pointHandler) error {
	for _, e := range t.Experiments {
		if err := e.validate(); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	for _, e := range t.Experiments {
		if e.Header != "" {
			if _, err := io.WriteString(w, e.Header+"\n"); err != nil {
				return err
			}
		}
		if err := runSection(w, e, base, figure, h); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// runSection runs one validated section: the scale and load sweeps stream
// their rows through ScaleWriter/LoadWriter as each point completes, a
// figure-type driver writes Format(figure) and a blank line once it is done.
func runSection(w io.Writer, e ExperimentSpec, base experiments.RunConfig, figure func(experiments.Figure) error, h pointHandler) error {
	seed, rep := e.resolve()
	switch e.ID {
	case "load":
		_, err := experiments.Load(experiments.LoadConfig{
			Rates:       e.LoadRates,
			Replicates:  e.LoadReps,
			Seed:        seed,
			Parallelism: base.ReplicateParallelism,
			Emit:        experiments.LoadWriter(w),
			Runner:      fixedHook[experiments.LoadRow](h, e.ID, seed),
		})
		return err
	case "scale":
		_, err := experiments.Scale(experiments.ScaleConfig{
			Sizes:       e.ScaleSizes,
			Degree:      e.ScaleDegree,
			Replicates:  e.ScaleReps,
			Seed:        seed,
			Parallelism: base.ReplicateParallelism,
			Emit:        experiments.ScaleWriter(w),
			Runner:      fixedHook[experiments.ScaleRow](h, e.ID, seed),
		})
		return err
	}
	rc := base
	rc.Sizes, rc.Degrees = e.Sizes, e.Degrees
	rc.Replicate, rc.Seed = rep, seed
	rc.CrashFractions, rc.LossRates = e.CrashFractions, e.LossRates
	rc.HelloLossRates, rc.RestartRates = e.HelloLossRates, e.RestartRates
	if h != nil {
		rc.Runner = func(point string, compute func() (stats.Summary, error)) (stats.Summary, error) {
			cfg := PointConfig{Schema: PointSchema, Experiment: e.ID, Point: point, Seed: seed,
				MinRuns: rep.MinRuns, MaxRuns: rep.MaxRuns, RelTol: rep.RelTol}
			var payload summaryPayload
			err := h(cfg, &payload, func() error {
				sum, err := compute()
				payload = payloadFrom(sum)
				return err
			})
			return payload.summary(), err
		}
	}
	run, _ := experiments.Driver(e.ID)
	f, err := run(rc)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, experiments.Format(f)+"\n"); err != nil {
		return err
	}
	if figure != nil {
		return figure(f)
	}
	return nil
}

// PointStatus is one grid point's cache state, as reported by List.
type PointStatus struct {
	// Experiment and Point identify the grid point; Hash is its content
	// address.
	Experiment, Point, Hash string
	// Cached reports whether the point's cache file exists (List does not
	// verify it; see Verify).
	Cached bool
}

// List enumerates every selected grid point and whether it is cached,
// without computing anything: the drivers run with a hook that records each
// point and substitutes zero results.
func List(opts Options) ([]PointStatus, error) {
	var mu sync.Mutex
	var out []PointStatus
	record := func(cfg PointConfig, _ any, _ func() error) error {
		_, err := os.Stat(opts.Cache.pointPath(cfg.Hash()))
		mu.Lock()
		defer mu.Unlock()
		out = append(out, PointStatus{
			Experiment: cfg.Experiment,
			Point:      cfg.Point,
			Hash:       cfg.Hash(),
			Cached:     err == nil,
		})
		return nil
	}
	tables, err := opts.tables()
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		if err := runTable(io.Discard, t, experiments.RunConfig{ReplicateParallelism: opts.ReplicateParallelism}, nil, record); err != nil {
			return nil, fmt.Errorf("list %s: %w", t.Output, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Point < out[j].Point
	})
	return out, nil
}

// Verify checks the whole store: every cached point file's chain seal and
// content address, every manifest's chain seal, every manifest entry's point
// file, and every manifest's recorded table hash against the table file in
// OutDir. It returns the number of verified point files; all failures are
// reported together.
func Verify(opts Options) (int, error) {
	points, err := opts.Cache.VerifyAll()
	var errs []error
	if err != nil {
		errs = append(errs, err)
	}
	outputs, err := opts.Cache.Manifests()
	if err != nil {
		return points, errors.Join(append(errs, err)...)
	}
	for _, output := range outputs {
		entries, table, err := opts.Cache.readManifest(output)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, e := range entries {
			if _, err := os.Stat(opts.Cache.pointPath(e.Hash)); err != nil {
				errs = append(errs, fmt.Errorf("manifest %s: point %q (%.12s…) has no cache file", output, e.Point, e.Hash))
			}
		}
		path := filepath.Join(opts.outDir(), table.Output)
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("manifest %s: %w", output, err))
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != table.SHA256 {
			errs = append(errs, fmt.Errorf("%s does not match its manifest hash (regenerated without `make grid`, or tampered)", path))
			continue
		}
		opts.logf("%s: %d point(s), table hash ok", output, len(entries))
	}
	return points, errors.Join(errs...)
}
