package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// data point (results are identical for any value); default 1.
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

// selected reports whether output is in the Tables filter (empty = all).
func (o Options) selected(output string) bool {
	if len(o.Tables) == 0 {
		return true
	}
	for _, t := range o.Tables {
		if t == output {
			return true
		}
	}
	return false
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
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	CI90   float64 `json:"ci90"`
}

func payloadFrom(s stats.Summary) summaryPayload {
	return summaryPayload{N: s.N, Mean: s.Mean, StdDev: s.StdDev, CI90: s.HalfWidth90}
}

func (p summaryPayload) summary() stats.Summary {
	return stats.Summary{N: p.N, Mean: p.Mean, StdDev: p.StdDev, HalfWidth90: p.CI90}
}

// pointHandler resolves one grid point on behalf of a driver's Runner hook:
// it fills *dst — a pointer to the point's cached payload type — from the
// cache or by calling compute (which assigns *dst), or leaves it zero. The
// drivers invoke hooks concurrently, so a handler is safe for concurrent
// calls. Run and List differ only in their handler.
type pointHandler func(cfg PointConfig, dst any, compute func() error) error

// fixedHook adapts a pointHandler to the Runner signature of a
// fixed-replication sweep (scale, load), whose points cache their rows. The
// point's canonical config comes from its label, which ends in the resolved
// degree and replicate count (the scale driver caps the count for the largest
// sizes); with the seed they pin the point.
func fixedHook[R any](h pointHandler, experiment string, seed int64) func(string, func() ([]R, error)) ([]R, error) {
	return func(point string, compute func() ([]R, error)) ([]R, error) {
		cfg := PointConfig{Schema: PointSchema, Experiment: experiment, Point: point, Seed: seed}
		i := strings.LastIndex(point, "/d=")
		if i < 0 {
			return nil, fmt.Errorf("grid: unparseable %s point label %q", experiment, point)
		}
		if _, err := fmt.Sscanf(point[i:], "/d=%d/reps=%d", &cfg.Degree, &cfg.Replicates); err != nil {
			return nil, fmt.Errorf("grid: unparseable %s point label %q: %w", experiment, point, err)
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
			return fmt.Errorf("grid: point %q (%.12s…) not cached", cfg.Point, cfg.Hash())
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
	rep := stats.ReplicateOptions{MinRuns: e.MinRuns, MaxRuns: e.MaxRuns, RelTol: e.RelTol}
	if rep.MinRuns == 0 {
		rep.MinRuns = 30
	}
	if rep.MaxRuns == 0 {
		rep.MaxRuns = 200
	}
	if rep.RelTol == 0 {
		rep.RelTol = 0.03
	}
	return seed, rep
}

// Run executes every selected table of the spec: each grid point is served
// from the cache when its content-addressed file verifies, computed and
// stored otherwise, and each completed table is written atomically to OutDir
// alongside a sealed provenance manifest in the cache.
func Run(opts Options) (Stats, error) {
	var st Stats
	for _, t := range opts.Spec.Tables {
		if !opts.selected(t.Output) {
			continue
		}
		col := &collector{opts: opts, st: &st}
		var buf strings.Builder
		for _, e := range t.Experiments {
			section, err := runExperiment(opts, e, col.serve)
			if err != nil {
				return st, fmt.Errorf("grid: %s: %s: %w", t.Output, e.ID, err)
			}
			if e.Header != "" {
				buf.WriteString(e.Header + "\n")
			}
			buf.WriteString(section)
		}
		data := []byte(buf.String())
		sum := sha256.Sum256(data)
		if err := opts.Cache.WriteManifest(t.Output, col.ents, hex.EncodeToString(sum[:])); err != nil {
			return st, fmt.Errorf("grid: %s: manifest: %w", t.Output, err)
		}
		if err := obsv.WriteFileAtomic(filepath.Join(opts.outDir(), t.Output), data); err != nil {
			return st, fmt.Errorf("grid: %s: %w", t.Output, err)
		}
		opts.logf("%s: %d point(s)", t.Output, len(col.ents))
	}
	return st, nil
}

// runExperiment executes one section of a table with every data point
// resolved by h, and returns the section's rendered bytes (excluding the
// optional header). The output is byte-identical to what cmd/experiments
// prints for the same parameters: Format(figure) plus the trailing blank line
// for figure and extension sections, FormatScale for the scale sweep,
// FormatLoad for the saturation sweep.
func runExperiment(opts Options, e ExperimentSpec, h pointHandler) (string, error) {
	seed, rep := e.resolve()
	switch e.ID {
	case "load":
		rows, err := experiments.Load(experiments.LoadConfig{
			Rates:      e.LoadRates,
			Replicates: e.LoadReps,
			Seed:       seed,
			Runner:     fixedHook[experiments.LoadRow](h, e.ID, seed),
		})
		return experiments.FormatLoad(rows), err
	case "scale":
		rows, err := experiments.Scale(experiments.ScaleConfig{
			Sizes:      e.ScaleSizes,
			Degree:     e.ScaleDegree,
			Replicates: e.ScaleReps,
			Seed:       seed,
			Runner:     fixedHook[experiments.ScaleRow](h, e.ID, seed),
		})
		return experiments.FormatScale(rows), err
	}
	rc := experiments.RunConfig{
		Sizes:                e.Sizes,
		Degrees:              e.Degrees,
		Replicate:            rep,
		Seed:                 seed,
		ReplicateParallelism: opts.ReplicateParallelism,
		CrashFractions:       e.CrashFractions,
		LossRates:            e.LossRates,
		HelloLossRates:       e.HelloLossRates,
		RestartRates:         e.RestartRates,
		Runner: func(point string, compute func() (stats.Summary, error)) (stats.Summary, error) {
			cfg := PointConfig{
				Schema:     PointSchema,
				Experiment: e.ID,
				Point:      point,
				Seed:       seed,
				MinRuns:    rep.MinRuns,
				MaxRuns:    rep.MaxRuns,
				RelTol:     rep.RelTol,
			}
			var payload summaryPayload
			err := h(cfg, &payload, func() error {
				sum, err := compute()
				payload = payloadFrom(sum)
				return err
			})
			return payload.summary(), err
		},
	}
	var f experiments.Figure
	var err error
	if ext, ok := strings.CutPrefix(e.ID, "ext:"); ok {
		f, err = experiments.ExtensionByID(ext, rc)
	} else {
		f, err = experiments.FigureByID(strings.TrimPrefix(e.ID, "fig"), rc)
	}
	return experiments.Format(f) + "\n", err
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
	for _, t := range opts.Spec.Tables {
		if !opts.selected(t.Output) {
			continue
		}
		for _, e := range t.Experiments {
			if _, err := runExperiment(opts, e, record); err != nil {
				return nil, fmt.Errorf("grid: list %s: %w", e.ID, err)
			}
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
				errs = append(errs, fmt.Errorf("grid: manifest %s: point %q (%.12s…) has no cache file", output, e.Point, e.Hash))
			}
		}
		path := filepath.Join(opts.outDir(), table.Output)
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("grid: manifest %s: %w", output, err))
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != table.SHA256 {
			errs = append(errs, fmt.Errorf("grid: %s does not match its manifest hash (regenerated without `make grid`, or tampered)", path))
			continue
		}
		opts.logf("%s: %d point(s), table hash ok", output, len(entries))
	}
	return points, errors.Join(errs...)
}
