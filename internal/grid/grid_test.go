package grid

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPointConfigHashSensitivity walks PointConfig's fields by reflection and
// perturbs each one, proving the content address depends on every field: a
// future field added to the struct is covered automatically, and a field
// accidentally dropped from the JSON encoding (e.g. a json:"-" tag) fails
// here instead of silently aliasing distinct configurations.
func TestPointConfigHashSensitivity(t *testing.T) {
	base := PointConfig{
		Schema:     PointSchema,
		Experiment: "fig10",
		Point:      "10/d=6, 2-hop/FR/n=60/d=6",
		Seed:       42,
		MinRuns:    30,
		MaxRuns:    200,
		RelTol:     0.03,
		Replicates: 5,
		Degree:     18,
	}
	want := base.Hash()
	if want != base.Hash() {
		t.Fatal("hash not deterministic")
	}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		mut := base
		fv := reflect.ValueOf(&mut).Elem().Field(i)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString(fv.String() + "x")
		case reflect.Int, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 0.5)
		default:
			t.Fatalf("field %s has kind %s: teach this test to perturb it", field.Name, fv.Kind())
		}
		if mut.Hash() == want {
			t.Errorf("perturbing field %s did not change the hash: configs would alias in the cache", field.Name)
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := PointConfig{Schema: PointSchema, Experiment: "fig10", Point: "p", Seed: 42, MinRuns: 5, MaxRuns: 8, RelTol: 0.5}

	var out summaryPayload
	if hit, err := c.Get(cfg, &out); err != nil || hit {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}
	in := summaryPayload{N: 7, Mean: 12.3456789012345, StdDev: 0.1, CI90: 0.0123456789}
	if err := c.Put(cfg, in); err != nil {
		t.Fatal(err)
	}
	hit, err := c.Get(cfg, &out)
	if err != nil || !hit {
		t.Fatalf("after Put: hit=%v err=%v", hit, err)
	}
	if out != in {
		t.Fatalf("round trip lost precision: got %+v want %+v", out, in)
	}
	if n, err := c.VerifyAll(); err != nil || n != 1 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
}

// TestCacheDetectsEveryFlippedByte flips each byte of a cached point file in
// turn and requires Get to fail loudly — never a silent miss that would
// quietly recompute over tampered provenance, and never a hit serving
// corrupted data.
func TestCacheDetectsEveryFlippedByte(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := PointConfig{Schema: PointSchema, Experiment: "fig10", Point: "p", Seed: 42, MinRuns: 5, MaxRuns: 8, RelTol: 0.5}
	if err := c.Put(cfg, summaryPayload{N: 7, Mean: 1.5, StdDev: 0.1, CI90: 0.01}); err != nil {
		t.Fatal(err)
	}
	path := c.pointPath(cfg.Hash())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range orig {
		if b == '\n' {
			continue
		}
		mut := bytes.Clone(orig)
		mut[i] ^= 0x20
		if mut[i] == '\n' || mut[i] == b {
			mut[i] = b ^ 0x01
		}
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		var out summaryPayload
		if hit, err := c.Get(cfg, &out); err == nil {
			t.Fatalf("flipped byte %d (%q -> %q): Get returned hit=%v with no error", i, b, mut[i], hit)
		}
		if _, err := c.VerifyAll(); err == nil {
			t.Fatalf("flipped byte %d: VerifyAll passed", i)
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	var out summaryPayload
	if hit, err := c.Get(cfg, &out); err != nil || !hit {
		t.Fatalf("restored file: hit=%v err=%v", hit, err)
	}
}

// TestCommittedSpecMatchesDefault pins the committed grid.json to DefaultSpec:
// editing one without the other fails here, so `make grid` and the Go-side
// default can never drift apart.
func TestCommittedSpecMatchesDefault(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "..", "grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, DefaultSpec()) {
		t.Fatal("committed grid.json differs from DefaultSpec(); regenerate one to match the other")
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"tables":[{"output":"a.txt","experiments":[{"id":"fig10","seeed":1}]}]}`,
		"unknown id":       `{"tables":[{"output":"a.txt","experiments":[{"id":"fig99"}]}]}`,
		"unknown ext":      `{"tables":[{"output":"a.txt","experiments":[{"id":"ext:nope"}]}]}`,
		"duplicate output": `{"tables":[{"output":"a.txt","experiments":[{"id":"fig10"}]},{"output":"a.txt","experiments":[{"id":"fig11"}]}]}`,
		"empty output":     `{"tables":[{"output":"","experiments":[{"id":"fig10"}]}]}`,
		"path output":      `{"tables":[{"output":"../a.txt","experiments":[{"id":"fig10"}]}]}`,
		"no experiments":   `{"tables":[{"output":"a.txt","experiments":[]}]}`,
		"no tables":        `{"tables":[]}`,
	}
	for name, doc := range cases {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseSpec([]byte(`{"tables":[{"output":"a.txt","experiments":[{"id":"ext:mobility"},{"id":"scale"}]}]}`)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestParseSpecRejectsUnrunnableSections: a point's configuration must
// record the criterion its driver runs, so a negative count or tolerance
// (which the drivers would replace by a default) and a replication cap below
// its floor once defaults are filled in (which stats would raise to the
// floor) are refused, each naming its JSON field.
func TestParseSpecRejectsUnrunnableSections(t *testing.T) {
	cases := []struct{ section, field string }{
		{`"id":"fig10","min_runs":50,"max_runs":10`, "max_runs"},
		{`"id":"fig10","min_runs":300`, "max_runs"},
		{`"id":"fig10","min_runs":-1`, "min_runs"},
		{`"id":"fig10","max_runs":-5`, "max_runs"},
		{`"id":"fig10","rel_tol":-0.01`, "rel_tol"},
		{`"id":"scale","scale_reps":-1`, "scale_reps"},
		{`"id":"scale","scale_degree":-18`, "scale_degree"},
		{`"id":"load","load_reps":-2`, "load_reps"},
	}
	for _, c := range cases {
		_, err := ParseSpec([]byte(`{"tables":[{"output":"a.txt","experiments":[{` + c.section + `}]}]}`))
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("{%s}: err = %v, want a FieldError on %s", c.section, err, c.field)
		}
	}
	if _, err := ParseSpec([]byte(`{"tables":[{"output":"a.txt","experiments":[{"id":"fig10","min_runs":5,"max_runs":5},{"id":"fig11","paper":true,"min_runs":300}]}]}`)); err != nil {
		t.Errorf("equal floor and cap, or a paper section's unused floor, rejected: %v", err)
	}
}

// TestRunValidatesBeforeAnyPoint: a spec built in Go skips ParseSpec, so Run
// validates every section of a table before its first point computes.
func TestRunValidatesBeforeAnyPoint(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.Tables[0].Experiments = append(spec.Tables[0].Experiments, ExperimentSpec{ID: "load", LoadReps: -1})
	var fe *FieldError
	if _, err := Run(Options{Spec: spec, Cache: cache, OutDir: t.TempDir()}); !errors.As(err, &fe) || fe.Field != "load_reps" {
		t.Fatalf("Run: err = %v, want a FieldError on load_reps", err)
	}
	if points, _ := filepath.Glob(filepath.Join(dir, "points", "*")); len(points) != 0 {
		t.Fatalf("invalid spec computed %d point(s)", len(points))
	}
}

// tinySpec is a fast two-table grid for runner tests: one figure section with
// a single (n, d) sweep cell and loose replication.
func tinySpec() Spec {
	return Spec{Tables: []TableSpec{{
		Output: "tiny.txt",
		Experiments: []ExperimentSpec{{
			ID:      "fig10",
			Seed:    7,
			Sizes:   []int{20},
			Degrees: []int{6},
			MinRuns: 5,
			MaxRuns: 8,
			RelTol:  0.5,
		}},
	}}}
}

func TestRunCachesAndResumes(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	opts := Options{Spec: tinySpec(), Cache: cache, OutDir: out}

	cold, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Points == 0 || cold.Hits != 0 || cold.Misses != cold.Points {
		t.Fatalf("cold run: %+v", cold)
	}
	table1, err := os.ReadFile(filepath.Join(out, "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(table1) == 0 || !strings.Contains(string(table1), "Figure 10") {
		t.Fatalf("table content: %q", table1)
	}

	// Warm rerun: every point must be a hit (enforced by RequireCached) and
	// the table byte-identical.
	opts.RequireCached = true
	warm, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Points != cold.Points || warm.Hits != warm.Points || warm.Misses != 0 {
		t.Fatalf("warm run: %+v (cold %+v)", warm, cold)
	}
	table2, err := os.ReadFile(filepath.Join(out, "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(table1, table2) {
		t.Fatalf("warm table differs from cold table:\ncold: %q\nwarm: %q", table1, table2)
	}

	if n, err := Verify(opts); err != nil || n != cold.Points {
		t.Fatalf("Verify = %d, %v (want %d points)", n, err, cold.Points)
	}
}

// TestRunPreparesOutDirFirst: a missing -out directory is created, and one
// that cannot be (a regular file stands in its way) fails the run before its
// first point computes, instead of after the whole table.
func TestRunPreparesOutDirFirst(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Spec: tinySpec(), Cache: cache, OutDir: filepath.Join(blocked, "out")}); err == nil || !strings.Contains(err.Error(), "output directory") {
		t.Fatalf("Run into a directory under a file: err = %v, want an output directory error", err)
	}
	if points, _ := filepath.Glob(filepath.Join(dir, "points", "*")); len(points) != 0 {
		t.Fatalf("a run that cannot write its table computed %d point(s)", len(points))
	}

	out := filepath.Join(t.TempDir(), "missing", "nested")
	if _, err := Run(Options{Spec: tinySpec(), Cache: cache, OutDir: out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "tiny.txt")); err != nil {
		t.Fatalf("table not written into the created directory: %v", err)
	}
}

func TestRunRequireCachedFailsCold(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Spec: tinySpec(), Cache: cache, OutDir: t.TempDir(), RequireCached: true}
	if _, err := Run(opts); err == nil || !strings.Contains(err.Error(), "not cached") {
		t.Fatalf("cold run with RequireCached: %v", err)
	}
}

// TestRunRejectsAliasedPoints: sweep values that round to one point label
// would make the second point a cache hit on the first one's result; both Run
// and List must refuse the spec, and nothing may be cached.
func TestRunRejectsAliasedPoints(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.Tables[0].Experiments[0].ID = "ext:loss"
	spec.Tables[0].Experiments[0].LossRates = []float64{0.051, 0.054}
	opts := Options{Spec: spec, Cache: cache, OutDir: t.TempDir()}
	const label = `"D3/Flooding/loss=5/d=6"`
	if _, err := Run(opts); err == nil || !strings.Contains(err.Error(), label) {
		t.Fatalf("Run: err = %v, want one naming %s", err, label)
	}
	if _, err := List(opts); err == nil || !strings.Contains(err.Error(), label) {
		t.Fatalf("List: err = %v, want one naming %s", err, label)
	}
	if points, _ := filepath.Glob(filepath.Join(dir, "points", "*")); len(points) != 0 {
		t.Fatalf("aliased spec cached %d point(s)", len(points))
	}
}

func TestListReportsCacheState(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Spec: tinySpec(), Cache: cache, OutDir: t.TempDir()}

	before, err := List(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("List found no points")
	}
	for _, p := range before {
		if p.Cached {
			t.Fatalf("cold cache reports %q cached", p.Point)
		}
	}
	st, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	after, err := List(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != st.Points {
		t.Fatalf("List found %d points, Run executed %d", len(after), st.Points)
	}
	for _, p := range after {
		if !p.Cached {
			t.Fatalf("after Run, %q not cached", p.Point)
		}
	}
}

func TestVerifyDetectsTamperedTableAndPoint(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	opts := Options{Spec: tinySpec(), Cache: cache, OutDir: out}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}

	// A regenerated-by-hand table no longer matches its manifest hash.
	table := filepath.Join(out, "tiny.txt")
	data, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(table, append(data, '#'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(opts); err == nil || !strings.Contains(err.Error(), "manifest hash") {
		t.Fatalf("tampered table passed Verify: %v", err)
	}
	if err := os.WriteFile(table, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A deleted point file breaks the manifest's provenance.
	points, err := os.ReadDir(filepath.Join(cache.Dir(), "points"))
	if err != nil || len(points) == 0 {
		t.Fatalf("points dir: %v (%d entries)", err, len(points))
	}
	victim := filepath.Join(cache.Dir(), "points", points[0].Name())
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(opts); err == nil || !strings.Contains(err.Error(), "no cache file") {
		t.Fatalf("missing point file passed Verify: %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := []manifestEntry{
		{Experiment: "fig11", Point: "b", Hash: "22"},
		{Experiment: "fig10", Point: "a", Hash: "11"},
	}
	if err := c.WriteManifest("x.txt", entries, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	got, table, err := c.readManifest("x.txt")
	if err != nil {
		t.Fatal(err)
	}
	if table.Output != "x.txt" || table.SHA256 != "deadbeef" {
		t.Fatalf("table record: %+v", table)
	}
	if len(got) != 2 || got[0].Experiment != "fig10" || got[1].Experiment != "fig11" {
		t.Fatalf("entries not sorted: %+v", got)
	}
	outs, err := c.Manifests()
	if err != nil || len(outs) != 1 || outs[0] != "x.txt" {
		t.Fatalf("Manifests = %v, %v", outs, err)
	}
}

// TestLoadRunnerCaches exercises the saturation-sweep path end to end on a
// tiny sweep: cold run computes and stores one point per rate, warm run is
// all hits with identical bytes.
func TestLoadRunnerCaches(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	spec := Spec{Tables: []TableSpec{{
		Output: "load.txt",
		Experiments: []ExperimentSpec{{
			ID:        "load",
			Seed:      7,
			LoadRates: []float64{0.05, 0.2},
			LoadReps:  2,
		}},
	}}}
	opts := Options{Spec: spec, Cache: cache, OutDir: out}
	cold, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Points != 2 || cold.Misses != 2 {
		t.Fatalf("cold load run: %+v", cold)
	}
	table1, err := os.ReadFile(filepath.Join(out, "load.txt"))
	if err != nil {
		t.Fatal(err)
	}
	opts.RequireCached = true
	warm, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hits != 2 || warm.Misses != 0 {
		t.Fatalf("warm load run: %+v", warm)
	}
	table2, err := os.ReadFile(filepath.Join(out, "load.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(table1, table2) {
		t.Fatalf("load table not byte-identical:\ncold: %q\nwarm: %q", table1, table2)
	}
	if !strings.Contains(string(table1), "offered load 0.050 sessions/slot (2 replicates)") {
		t.Fatalf("load table content: %q", table1)
	}
}

// TestScaleRunnerCaches exercises the scale path end to end on a tiny sweep:
// cold run computes and stores, warm run is all hits with identical bytes.
func TestScaleRunnerCaches(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	spec := Spec{Tables: []TableSpec{{
		Output: "scale.txt",
		Experiments: []ExperimentSpec{{
			ID:         "scale",
			Seed:       7,
			ScaleSizes: []int{40, 60},
			ScaleReps:  2,
		}},
	}}}
	opts := Options{Spec: spec, Cache: cache, OutDir: out}
	cold, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Points != 2 || cold.Misses != 2 {
		t.Fatalf("cold scale run: %+v", cold)
	}
	table1, err := os.ReadFile(filepath.Join(out, "scale.txt"))
	if err != nil {
		t.Fatal(err)
	}
	opts.RequireCached = true
	warm, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hits != 2 || warm.Misses != 0 {
		t.Fatalf("warm scale run: %+v", warm)
	}
	table2, err := os.ReadFile(filepath.Join(out, "scale.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(table1, table2) {
		t.Fatalf("scale table not byte-identical:\ncold: %q\nwarm: %q", table1, table2)
	}
	if !strings.Contains(string(table1), "n=40 (2 replicates)") {
		t.Fatalf("scale table content: %q", table1)
	}
}

// TestOneReplicatePointsCache: a point measured once has no confidence
// interval (a +Inf half-width, which JSON cannot carry); it must still cache,
// and its warm rerun must print the same "±n/a" table.
func TestOneReplicatePointsCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	spec := Spec{Tables: []TableSpec{{
		Output: "once.txt",
		Experiments: []ExperimentSpec{
			{ID: "fig16", Seed: 7, Sizes: []int{20}, Degrees: []int{6}, MinRuns: 1, MaxRuns: 1},
			{ID: "scale", Seed: 7, ScaleSizes: []int{40}, ScaleDegree: 8, ScaleReps: 1},
			{ID: "load", Seed: 7, LoadRates: []float64{0.05}, LoadReps: 1},
		},
	}}}
	opts := Options{Spec: spec, Cache: cache, OutDir: out}
	if _, err := Run(opts); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cold, err := os.ReadFile(filepath.Join(out, "once.txt"))
	if err != nil {
		t.Fatal(err)
	}
	opts.RequireCached = true
	if _, err := Run(opts); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	warm, err := os.ReadFile(filepath.Join(out, "once.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) || !strings.Contains(string(cold), "±n/a") {
		t.Fatalf("one-replicate table:\ncold: %q\nwarm: %q", cold, warm)
	}
}
