package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"adhocbcast/internal/experiments"
)

// Spec is a declarative experiment grid: a list of output tables, each
// composed of experiment sections whose data points expand into grid points.
// The committed grid.json at the repository root is the parsed form of
// DefaultSpec and regenerates every committed results_*.txt table.
type Spec struct {
	// Tables lists the result files to generate, in order.
	Tables []TableSpec `json:"tables"`
}

// TableSpec is one generated results file.
type TableSpec struct {
	// Output is the file name the table is written to (inside the runner's
	// output directory), e.g. "results_all.txt".
	Output string `json:"output"`
	// Experiments lists the sections of the table, rendered in order.
	Experiments []ExperimentSpec `json:"experiments"`
}

// ExperimentSpec is one section of a table: a single experiment driver run
// with fully-resolved parameters. Zero-valued fields take the drivers'
// defaults, and the resolved values — not the zeroes — are what each grid
// point's PointConfig records, so a default change recomputes the affected
// points instead of silently reusing stale ones.
type ExperimentSpec struct {
	// ID names the driver: "fig10".."fig16", "ext:<name>" (see
	// experiments.AllExtensionIDs), "scale", or "load".
	ID string `json:"id"`
	// Header, when non-empty, is printed verbatim on its own line above the
	// section (results_ext.txt uses "==== -ext <id> ====" headers).
	Header string `json:"header,omitempty"`
	// Paper selects the paper's ±1% CI replication criterion
	// (experiments.Paper), overriding MinRuns/MaxRuns/RelTol.
	Paper bool `json:"paper,omitempty"`
	// Seed is the base workload seed (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Sizes and Degrees override the figure/extension sweep axes.
	Sizes   []int `json:"sizes,omitempty"`
	Degrees []int `json:"degrees,omitempty"`
	// MinRuns, MaxRuns, and RelTol override the moderate replication
	// criterion (defaults 30, 200, 0.03); ignored when Paper is set.
	MinRuns int     `json:"min_runs,omitempty"`
	MaxRuns int     `json:"max_runs,omitempty"`
	RelTol  float64 `json:"rel_tol,omitempty"`
	// CrashFractions, LossRates, HelloLossRates, and RestartRates override
	// the degradation, imperfect-view, and crash-recovery sweep values.
	CrashFractions []float64 `json:"crash_fractions,omitempty"`
	LossRates      []float64 `json:"loss_rates,omitempty"`
	HelloLossRates []float64 `json:"hello_loss_rates,omitempty"`
	RestartRates   []float64 `json:"restart_rates,omitempty"`
	// ScaleSizes, ScaleDegree, and ScaleReps configure the "scale" driver.
	ScaleSizes  []int `json:"scale_sizes,omitempty"`
	ScaleDegree int   `json:"scale_degree,omitempty"`
	ScaleReps   int   `json:"scale_reps,omitempty"`
	// LoadRates and LoadReps configure the "load" (saturation sweep) driver.
	LoadRates []float64 `json:"load_rates,omitempty"`
	LoadReps  int       `json:"load_reps,omitempty"`
}

// ParseSpec decodes and validates a spec document. Unknown fields are
// errors, so a typoed key fails loudly instead of silently reverting a
// parameter to its default.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("parse spec: %w", err)
	}
	if err := spec.validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	spec, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func (s Spec) validate() error {
	if len(s.Tables) == 0 {
		return fmt.Errorf("spec has no tables")
	}
	seen := map[string]bool{}
	for _, t := range s.Tables {
		if t.Output == "" {
			return fmt.Errorf("table without output name")
		}
		if strings.ContainsAny(t.Output, "/\\") || strings.HasPrefix(t.Output, ".") {
			return fmt.Errorf("table output %q must be a plain file name", t.Output)
		}
		if seen[t.Output] {
			return fmt.Errorf("duplicate table output %q", t.Output)
		}
		seen[t.Output] = true
		if len(t.Experiments) == 0 {
			return fmt.Errorf("table %q has no experiments", t.Output)
		}
		for _, e := range t.Experiments {
			if err := e.validate(); err != nil {
				return fmt.Errorf("table %q: %s: %w", t.Output, e.ID, err)
			}
		}
	}
	return nil
}

// FieldError is an ExperimentSpec field whose value no driver can run.
// Field is the field's JSON key, so each front end can name it in its own
// terms (cmd/experiments maps it to the flag that sets it).
type FieldError struct {
	Field, Msg string
}

// Error reports the field by its JSON key, then what is wrong with it.
func (e *FieldError) Error() string { return e.Field + ": " + e.Msg }

// validate checks a section before any of its points runs: a registered
// driver, no negative count or tolerance, finite sweep values, and a
// replication cap no lower than its floor once defaults are filled in — so a
// point's recorded configuration is the one its driver actually uses.
func (e ExperimentSpec) validate() error {
	if _, ok := experiments.Driver(e.ID); !ok && e.ID != "scale" && e.ID != "load" {
		return &FieldError{"id", fmt.Sprintf("unknown experiment %q (valid: fig10..fig16, ext:<name>, scale, load)", e.ID)}
	}
	counts := []int{e.MinRuns, e.MaxRuns, e.ScaleDegree, e.ScaleReps, e.LoadReps}
	for i, field := range []string{"min_runs", "max_runs", "scale_degree", "scale_reps", "load_reps"} {
		if counts[i] < 0 {
			return &FieldError{field, fmt.Sprintf("%d must not be negative", counts[i])}
		}
	}
	if !(e.RelTol >= 0) || math.IsInf(e.RelTol, 1) {
		return &FieldError{"rel_tol", fmt.Sprintf("%v is not a finite non-negative number", e.RelTol)}
	}
	lists := [][]float64{e.CrashFractions, e.LossRates, e.HelloLossRates, e.RestartRates, e.LoadRates}
	for i, field := range []string{"crash_fractions", "loss_rates", "hello_loss_rates", "restart_rates", "load_rates"} {
		for _, x := range lists[i] {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return &FieldError{field, fmt.Sprintf("entry %v is not a finite number", x)}
			}
		}
	}
	if _, rep := e.resolve(); rep.MaxRuns < rep.MinRuns {
		return &FieldError{"max_runs", fmt.Sprintf("%d is below min_runs %d", rep.MaxRuns, rep.MinRuns)}
	}
	return nil
}

// DefaultSpec is the grid behind the six committed results tables:
// results_all.txt (every figure, moderate replication), results_paper.txt
// (every figure, the paper's ±1% criterion), results_ext.txt (every
// pre-existing extension experiment with its section header),
// results_scale.txt (the large-n sweep), results_load.txt (the
// heavy-traffic saturation sweep), and results_restart.txt (the
// crash-recovery restart sweeps, in their own table so the older tables
// stay byte-identical). The committed grid.json must stay equal to it
// (pinned by TestCommittedSpecMatchesDefault).
func DefaultSpec() Spec {
	figs := func(paper bool) []ExperimentSpec {
		var out []ExperimentSpec
		for _, id := range experiments.AllFigureIDs() {
			out = append(out, ExperimentSpec{ID: "fig" + id, Paper: paper})
		}
		return out
	}
	// The restart sweeps live in their own table: appending them to
	// results_ext.txt would change committed bytes.
	restartIDs := map[string]bool{"restart": true, "restartlatency": true}
	var exts, restarts []ExperimentSpec
	for _, id := range experiments.AllExtensionIDs() {
		e := ExperimentSpec{
			ID:     "ext:" + id,
			Header: fmt.Sprintf("==== -ext %s ====", id),
		}
		if restartIDs[id] {
			restarts = append(restarts, e)
		} else {
			exts = append(exts, e)
		}
	}
	return Spec{Tables: []TableSpec{
		{Output: "results_all.txt", Experiments: figs(false)},
		{Output: "results_paper.txt", Experiments: figs(true)},
		{Output: "results_ext.txt", Experiments: exts},
		{Output: "results_scale.txt", Experiments: []ExperimentSpec{{ID: "scale"}}},
		{Output: "results_load.txt", Experiments: []ExperimentSpec{{ID: "load"}}},
		{Output: "results_restart.txt", Experiments: restarts},
	}}
}
