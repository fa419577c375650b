package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"adhocbcast/internal/grid"
	"adhocbcast/internal/obsv"
)

// grid_tables writes beside reads: a cold grid.Run computes every point and
// stores it (Cache.Put, manifests); a warm one only reads (Cache.Get, sha256,
// chain verification). Compute-layer speedups may move the cold run and must
// not move the warm one; cache I/O changes the reverse.

// fullGridPoints is what grid_spec.json expands to at the drivers' default
// sizes: fig10-fig16, every (variant, n, d) point.
const fullGridPoints = 648

// defaultRelTol is the drivers' moderate criterion, which the spec leaves
// unset and the grid resolves into every point's configuration.
const defaultRelTol = 0.03

// gridSpec loads the bench-owned spec and points every section at seed, so a
// run's points are its own and a later unit's cold run finds nothing cached
// in the drivers' workload cache either.
func gridSpec(r *run, seed int64) (grid.Spec, error) {
	spec, err := grid.LoadSpec(filepath.Join(r.dirs.bench, "grid_spec.json"))
	if err != nil {
		return spec, err
	}
	for ti := range spec.Tables {
		for ei := range spec.Tables[ti].Experiments {
			e := &spec.Tables[ti].Experiments[ei]
			e.Seed = seed
			e.Sizes = r.sz.GridSizes
		}
	}
	return spec, nil
}

// gridStore is one fresh cache with the two output directories a unit uses.
type gridStore struct {
	cache      *grid.Cache
	cold, warm string
}

func newGridStore(r *run) (gridStore, error) {
	dir, err := r.tempDir("grid")
	if err != nil {
		return gridStore{}, err
	}
	s := gridStore{cold: filepath.Join(dir, "cold"), warm: filepath.Join(dir, "warm")}
	for _, d := range []string{s.cold, s.warm} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return s, err
		}
	}
	s.cache, err = grid.OpenCache(filepath.Join(dir, "cache"))
	return s, err
}

// gridUnit is one cold run into a fresh cache, warm runs that must be served
// from it byte for byte, and a verification of the sealed store.
type gridUnit struct {
	cold, verify time.Duration
	warm         []time.Duration
	coldStats    grid.Stats
	warmStats    grid.Stats // of the last warm run
	cacheBytes   int64
}

func runGridUnit(r *run, s gridStore, spec grid.Spec, warmRuns int) (gridUnit, error) {
	var u gridUnit
	table := spec.Tables[0].Output
	// Each grid.Run is a memory unit of its own (see run.unit): warm runs
	// now and then overshoot by tens of MB on GC timing, and a median over a
	// dozen calls ignores that where a median over two or three units cannot.
	var st grid.Stats
	err := r.unit(func() (err error) {
		start := time.Now()
		st, err = grid.Run(grid.Options{Spec: spec, Cache: s.cache, OutDir: s.cold})
		u.cold = time.Since(start)
		return err
	})
	if err != nil {
		return u, err
	}
	u.coldStats = st
	r.check(st.Hits == 0 && st.Misses == st.Points, "cold grid run: %d hits, %d misses of %d points", st.Hits, st.Misses, st.Points)
	for i := 0; i < st.Points; i++ {
		r.op(true)
	}
	want, err := os.ReadFile(filepath.Join(s.cold, table))
	if err != nil {
		return u, err
	}
	for i := 0; i < warmRuns; i++ {
		err := r.unit(func() (err error) {
			start := time.Now()
			st, err = grid.Run(grid.Options{Spec: spec, Cache: s.cache, OutDir: s.warm, RequireCached: true})
			u.warm = append(u.warm, time.Since(start))
			return err
		})
		if err != nil {
			return u, err
		}
		u.warmStats = st
		got, err := os.ReadFile(filepath.Join(s.warm, table))
		if err != nil {
			return u, err
		}
		same := bytes.Equal(got, want)
		r.check(same, "warm grid run %d: table differs from the cold run's", i)
		for p := 0; p < st.Points; p++ {
			r.op(same && p >= st.Misses)
		}
	}
	start := time.Now()
	verified, err := grid.Verify(grid.Options{Spec: spec, Cache: s.cache, OutDir: s.warm})
	u.verify = time.Since(start)
	r.check(err == nil, "grid.Verify: %v", err)
	r.check(verified == u.coldStats.Points, "grid.Verify checked %d point files, want %d", verified, u.coldStats.Points)
	err = filepath.WalkDir(s.cache.Dir(), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			u.cacheBytes += info.Size()
		}
		return err
	})
	return u, err
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func measureGrid(r *run) error {
	// Set-up: a fresh store on disk, the spec expanded into its points, and
	// a warm-up run at two replicates per point into a store of its own, which
	// faults in the drivers the timed runs use. (Without the warm-up, set-up
	// is a few milliseconds of mkdir and stat, too small to compare.)
	var setups []float64
	var store gridStore
	for i := 0; i < r.sz.SetupReps; i++ {
		start := time.Now()
		spec, err := gridSpec(r, r.seed)
		if err != nil {
			return err
		}
		if store, err = newGridStore(r); err != nil {
			return err
		}
		points, err := grid.List(grid.Options{Spec: spec, Cache: store.cache})
		if err != nil {
			return err
		}
		r.check(r.sz.Toy || len(points) == fullGridPoints, "spec expands to %d points, want %d", len(points), fullGridPoints)
		warm, err := gridSpec(r, deriveSeed(r.seed, "grid.warm", i))
		if err != nil {
			return err
		}
		for ei := range warm.Tables[0].Experiments {
			warm.Tables[0].Experiments[ei].MinRuns, warm.Tables[0].Experiments[ei].MaxRuns = 2, 2
		}
		scratch, err := newGridStore(r)
		if err != nil {
			return err
		}
		if _, err := grid.Run(grid.Options{Spec: warm, Cache: scratch.cache, OutDir: scratch.cold}); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))

	var walls, rates, colds, warms []float64
	var slowest time.Duration
	start := time.Now()
	for u := 0; r.more(start, u, 1, slowest); u++ {
		spec, err := gridSpec(r, r.seed+int64(u))
		if err != nil {
			return err
		}
		if u > 0 {
			if store, err = newGridStore(r); err != nil {
				return err
			}
		}
		g, err := runGridUnit(r, store, spec, r.sz.GridWarm)
		if err != nil {
			return err
		}
		// The unit's time is the time inside its calls, without the heap
		// resets between them.
		d := g.cold + g.verify
		for _, w := range g.warm {
			d += w
		}
		walls = append(walls, d.Seconds())
		colds = append(colds, g.cold.Seconds())
		warms = append(warms, seconds(g.warm)...)
		rates = append(rates, float64(g.coldStats.Points*(1+len(g.warm)))/d.Seconds())
		if d > slowest {
			slowest = d
		}
	}
	r.set("wall_s", median(walls))
	r.set("ops_per_s", median(rates))
	r.set("op_p50_ms", 1000*median(warms))
	r.setExtra("grid_cold_s", median(colds), "s")
	r.setExtra("grid_warm_s", median(warms), "s")
	r.setExtra("cold_samples", float64(len(colds)), "count")
	r.setExtra("warm_samples", float64(len(warms)), "count")
	return nil
}

func replayGrid(r *run) error {
	spec, err := gridSpec(r, r.seed)
	if err != nil {
		return err
	}
	store, err := newGridStore(r)
	if err != nil {
		return err
	}
	var listed []grid.PointStatus
	d := r.probe("grid.List", func() { listed, err = grid.List(grid.Options{Spec: spec, Cache: store.cache}) })
	if err != nil {
		return err
	}
	r.set("grid.spec_expand_s", d.Seconds())

	// Cache unit costs on synthetic points, in a store of their own.
	probeDir, err := r.tempDir("gridprobe")
	if err != nil {
		return err
	}
	probeCache, err := grid.OpenCache(probeDir)
	if err != nil {
		return err
	}
	type payload struct {
		N    int     `json:"n"`
		Mean float64 `json:"mean"`
	}
	cfgs := make([]grid.PointConfig, r.sz.GridProbeN)
	for i := range cfgs {
		cfgs[i] = grid.PointConfig{
			Schema: grid.PointSchema, Experiment: "fig10", Point: fmt.Sprintf("bench/probe/n=%d", i),
			Seed: r.seed, MinRuns: 5, MaxRuns: 5, RelTol: 0.03,
		}
	}
	put := r.probe("grid.Cache.Put", func() {
		for i, cfg := range cfgs {
			if err := probeCache.Put(cfg, payload{N: 5, Mean: float64(i)}); err != nil {
				r.check(false, "Cache.Put: %v", err)
			}
		}
	})
	get := r.probe("grid.Cache.Get", func() {
		for i, cfg := range cfgs {
			var p payload
			hit, err := probeCache.Get(cfg, &p)
			r.check(err == nil && hit && p.Mean == float64(i), "Cache.Get point %d: hit=%v err=%v", i, hit, err)
		}
	})
	verify := r.probe("grid.Cache.VerifyAll", func() {
		n, err := probeCache.VerifyAll()
		r.check(err == nil && n == len(cfgs), "Cache.VerifyAll: %d points, err=%v", n, err)
	})
	per := float64(len(cfgs)) * 1e3 // ns -> us per point
	r.set("grid.put_us_per_point", float64(put)/per)
	r.set("grid.get_us_per_point", float64(get)/per)
	r.set("grid.verify_us_per_point", float64(verify)/per)

	var g gridUnit
	r.span("grid.unit", 0, func() { g, err = runGridUnit(r, store, spec, 1) })
	if err != nil {
		return err
	}
	r.check(len(listed) == g.coldStats.Points, "grid.List found %d points, grid.Run %d", len(listed), g.coldStats.Points)
	warm := g.warm[0]
	r.set("grid.hits", float64(g.warmStats.Hits))
	r.set("grid.misses", float64(g.coldStats.Misses))
	r.set("grid.hit_ratio", float64(g.warmStats.Hits)/float64(g.warmStats.Points))
	r.set("grid.cache_bytes", float64(g.cacheBytes))

	// What a warm run spends outside Cache.Get — drivers, formatting, the
	// manifest and the table write — is its time minus the same Gets made
	// directly, on the files it has just read.
	criterion := map[string]grid.ExperimentSpec{}
	for _, e := range spec.Tables[0].Experiments {
		criterion[e.ID] = e
	}
	var gets time.Duration
	for _, ps := range listed {
		e := criterion[ps.Experiment]
		cfg := grid.PointConfig{
			Schema: grid.PointSchema, Experiment: ps.Experiment, Point: ps.Point,
			Seed: e.Seed, MinRuns: e.MinRuns, MaxRuns: e.MaxRuns, RelTol: defaultRelTol,
		}
		if cfg.Hash() != ps.Hash {
			r.check(false, "point %s: rebuilt config hashes to %.12s, the grid's to %.12s", ps.Point, cfg.Hash(), ps.Hash)
			continue
		}
		var sum struct{}
		start := time.Now()
		hit, err := store.cache.Get(cfg, &sum)
		gets += time.Since(start)
		r.check(hit && err == nil, "point %s: Get on the run's own cache: hit=%v err=%v", ps.Point, hit, err)
	}
	r.set("grid.run_self_s", (warm - gets).Seconds())
	r.set("grid.verify_s", g.verify.Seconds())
	r.setExtra("replay.grid_cold_s", g.cold.Seconds(), "s")
	r.setExtra("replay.grid_warm_s", warm.Seconds(), "s")

	return probeObsv(r)
}

// probeObsv measures the unit costs of the obsv primitives the grid (and the
// journal) are built on, in the run's scratch directory.
func probeObsv(r *run) error {
	dir, err := r.tempDir("obsv")
	if err != nil {
		return err
	}
	iters := r.sz.ProbeIters
	rec := obsv.Record{Kind: obsv.KindRun, Point: "bench/probe", Run: obsv.NewRunRecord()}
	var buf bytes.Buffer
	w := obsv.NewWriter(&buf)
	d := r.probe("obsv.Writer.Write", func() {
		for i := 0; i < iters; i++ {
			rec.Rep = i
			if err := w.Write(rec); err != nil {
				r.check(false, "obsv.Writer.Write: %v", err)
			}
		}
		if err := w.Seal(); err != nil {
			r.check(false, "obsv.Writer.Seal: %v", err)
		}
	})
	r.set("obsv.writer_ns_per_record", float64(d)/float64(iters))

	line := []byte(strings.Repeat("x", 199) + "\n")
	ch := obsv.NewChainHasher()
	d = r.probe("obsv.ChainHasher.Add", func() {
		for i := 0; i < iters; i++ {
			ch.Add(line)
		}
		ch.Link()
	})
	r.set("obsv.chain_ns_per_line", float64(d)/float64(iters))

	d = r.probe("obsv.VerifyChain", func() {
		links, err := obsv.VerifyChain(bytes.NewReader(buf.Bytes()))
		r.check(err == nil && links == 1, "obsv.VerifyChain: %d links, err=%v", links, err)
	})
	r.set("obsv.verify_chain_ns_per_line", float64(d)/float64(iters+1))

	atomicIters := iters/10 + 1
	data := bytes.Repeat(line, 3)
	d = r.probe("obsv.WriteFileAtomic", func() {
		for i := 0; i < atomicIters; i++ {
			if err := obsv.WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("atomic-%d", i%8)), data); err != nil {
				r.check(false, "obsv.WriteFileAtomic: %v", err)
			}
		}
	})
	r.set("obsv.write_atomic_us", float64(d)/float64(atomicIters)/1e3)

	us, err := appendSyncMicros(r, dir, iters/10+1)
	if err != nil {
		return err
	}
	r.set("obsv.append_sync_us", us)
	return nil
}

// appendSyncMicros measures one journal durability point: a 200-byte line
// written to an obsv.AppendFile in dir and fsynced.
func appendSyncMicros(r *run, dir string, iters int) (float64, error) {
	af, err := obsv.OpenAppend(filepath.Join(dir, "append.log"))
	if err != nil {
		return 0, err
	}
	defer af.Close()
	line := []byte(strings.Repeat("j", 199) + "\n")
	d := r.probe("obsv.AppendFile.Sync", func() {
		for i := 0; i < iters; i++ {
			if _, err := af.Write(line); err != nil {
				r.check(false, "obsv.AppendFile.Write: %v", err)
			}
			if err := af.Sync(); err != nil {
				r.check(false, "obsv.AppendFile.Sync: %v", err)
			}
		}
	})
	return float64(d) / float64(iters) / 1e3, nil
}
