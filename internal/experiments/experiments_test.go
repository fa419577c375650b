package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
	"adhocbcast/internal/view"
)

// tinyConfig keeps figure reproduction fast in tests.
func tinyConfig() RunConfig {
	return RunConfig{
		Sizes:     []int{20, 30},
		Degrees:   []int{6},
		Replicate: stats.ReplicateOptions{MinRuns: 5, MaxRuns: 8, RelTol: 0.5},
		Seed:      7,
	}
}

func TestRunConfigDefaults(t *testing.T) {
	rc := RunConfig{}.withDefaults()
	if len(rc.Sizes) != 9 || rc.Sizes[0] != 20 || rc.Sizes[8] != 100 {
		t.Fatalf("default sizes = %v", rc.Sizes)
	}
	if len(rc.Degrees) != 2 || rc.Degrees[0] != 6 || rc.Degrees[1] != 18 {
		t.Fatalf("default degrees = %v", rc.Degrees)
	}
	if rc.Seed == 0 {
		t.Fatal("default seed missing")
	}
}

func TestWorkloadSeedProperties(t *testing.T) {
	a := workloadSeed(1, 20, 6, 0)
	if a != workloadSeed(1, 20, 6, 0) {
		t.Fatal("workloadSeed not deterministic")
	}
	if a < 0 {
		t.Fatal("workloadSeed negative")
	}
	distinct := map[int64]bool{}
	for rep := 0; rep < 50; rep++ {
		distinct[workloadSeed(1, 20, 6, rep)] = true
	}
	if len(distinct) != 50 {
		t.Fatalf("replication seeds collide: %d distinct of 50", len(distinct))
	}
	if workloadSeed(1, 20, 6, 0) == workloadSeed(1, 30, 6, 0) {
		t.Fatal("different sizes share a seed")
	}
}

func TestMeasureCommonRandomNumbers(t *testing.T) {
	// Two variants with the same protocol must produce identical summaries:
	// the workloads are shared across variants by construction.
	rc := tinyConfig()
	rc = rc.withDefaults()
	mk := func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }
	v1 := variant{label: "a", cfg: sim.Config{Hops: 2}, make: mk}
	v2 := variant{label: "b", cfg: sim.Config{Hops: 2}, make: mk}
	s1, err := rc.measure(rc.sizeCell("test", 20, 6, v1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rc.measure(rc.sizeCell("test", 20, 6, v2))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Mean != s2.Mean || s1.N != s2.N {
		t.Fatalf("same protocol, different stats: %+v vs %+v", s1, s2)
	}
}

// TestRunConfigRejectsDuplicateLabels: sweep values that round to the same
// point label would share a trace file and a grid cache entry, so the driver
// refuses the figure and names the label.
func TestRunConfigRejectsDuplicateLabels(t *testing.T) {
	tests := []struct {
		name  string
		run   func(RunConfig) (Figure, error)
		tweak func(*RunConfig)
		label string
	}{
		{"loss rates", LossDegradation, func(rc *RunConfig) { rc.LossRates = []float64{0.051, 0.054} }, "D3/Flooding/loss=5/d=6"},
		{"crash fractions", CrashDegradation, func(rc *RunConfig) { rc.CrashFractions = []float64{0.1, 0.1} }, "D1/Flooding/crash=10/d=6"},
		{"hello loss rates", HelloLossDelivery, func(rc *RunConfig) { rc.HelloLossRates = []float64{0.2, 0.204} }, "H1/Flooding/helloloss=20/d=6"},
		{"restart rates", RestartDelivery, func(rc *RunConfig) { rc.RestartRates = []float64{0, 0.001} }, "RS1/Flooding/restart=0/d=6"},
		{"sizes", Figure10, func(rc *RunConfig) { rc.Sizes = []int{20, 30, 20} }, "fig10/d=6, 2-hop/Static/n=20/d=6"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rc := tinyConfig()
			tt.tweak(&rc)
			rc.Runner = func(point string, _ func() (stats.Summary, error)) (stats.Summary, error) {
				t.Errorf("point %q measured despite the duplicate label", point)
				return stats.Summary{}, nil
			}
			_, err := tt.run(rc)
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tt.label)) {
				t.Fatalf("err = %v, want one naming %q", err, tt.label)
			}
		})
	}
}

// TestRestartRejectsFractionOutsideUnit: a restart fraction is a share of the
// nodes, so NaN or a value outside [0,1] is refused with an error instead of
// restarting every non-source node under a -50 or 150 label.
func TestRestartRejectsFractionOutsideUnit(t *testing.T) {
	for _, bad := range []float64{-0.5, 1.5, math.NaN()} {
		for name, run := range map[string]func(RunConfig) (Figure, error){"delivery": RestartDelivery, "latency": RestartLatency} {
			rc := tinyConfig()
			rc.RestartRates = []float64{0, bad}
			if _, err := run(rc); err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
				t.Errorf("%s with restart fraction %v: err = %v, want one naming [0,1]", name, bad, err)
			}
		}
	}
}

// TestParallelFigureBitIdentical is the contract of Parallelism and
// ReplicateParallelism: every figure and every extension reproduced with
// concurrent points and concurrent replicates is bit-identical — every mean,
// CI half-width and run count — to the fully serial reproduction.
func TestParallelFigureBitIdentical(t *testing.T) {
	tiny := func(points, replicates int) RunConfig {
		return RunConfig{
			Sizes:                []int{20},
			Degrees:              []int{6},
			Replicate:            stats.ReplicateOptions{MinRuns: 3, MaxRuns: 4, RelTol: 0.5},
			Seed:                 7,
			Parallelism:          points,
			ReplicateParallelism: replicates,
			CrashFractions:       []float64{0, 0.3},
			LossRates:            []float64{0, 0.3},
			HelloLossRates:       []float64{0, 0.3},
			RestartRates:         []float64{0, 0.3},
		}
	}
	for _, d := range registry {
		run := d.run
		t.Run(d.id, func(t *testing.T) {
			t.Parallel()
			want, err := run(tiny(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range [][2]int{{1, 3}, {4, 1}, {4, 3}} {
				got, err := run(tiny(par[0], par[1]))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Parallelism=%d ReplicateParallelism=%d diverged from serial:\n got %+v\nwant %+v",
						par[0], par[1], got, want)
				}
			}
		})
	}
}

func TestFigureByIDUnknown(t *testing.T) {
	if _, ok := Driver("fig9"); ok {
		t.Fatal("figure 9 is the sample scenario, not a sweep; must have no driver")
	}
	for _, id := range []string{"figx", "10"} {
		if _, ok := Driver(id); ok {
			t.Fatalf("%q is not a grid id but has a driver", id)
		}
	}
}

// runDriver runs the driver registered under a grid id.
func runDriver(id string, rc RunConfig) (Figure, error) {
	run, ok := Driver(id)
	if !ok {
		return Figure{}, fmt.Errorf("no driver registered as %q", id)
	}
	return run(rc)
}

func TestAllFigureIDs(t *testing.T) {
	ids := AllFigureIDs()
	if len(ids) != 7 || ids[0] != "10" || ids[6] != "16" {
		t.Fatalf("AllFigureIDs = %v", ids)
	}
}

func TestFigureStructures(t *testing.T) {
	rc := tinyConfig()
	tests := []struct {
		id         string
		wantPanels int
		wantSeries []string
	}{
		{id: "10", wantPanels: 1, wantSeries: []string{"Static", "FR", "FRB", "FRBD"}},
		{id: "11", wantPanels: 1, wantSeries: []string{"SP", "ND", "MaxDeg", "MinPri"}},
		{id: "12", wantPanels: 1, wantSeries: []string{"2-hop", "3-hop", "4-hop", "5-hop", "global"}},
		{id: "13", wantPanels: 1, wantSeries: []string{"ID", "Degree", "NCR"}},
		{id: "14", wantPanels: 2, wantSeries: []string{"MPR", "Span", "Rule k", "Generic"}},
		{id: "15", wantPanels: 2, wantSeries: []string{"DP", "PDP", "LENWB", "Generic"}},
		{id: "16", wantPanels: 2, wantSeries: []string{"SBA", "Generic"}},
	}
	for _, tt := range tests {
		t.Run("figure"+tt.id, func(t *testing.T) {
			t.Parallel()
			fig, err := runDriver("fig"+tt.id, rc)
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != tt.id {
				t.Fatalf("ID = %q", fig.ID)
			}
			if len(fig.Panels) != tt.wantPanels {
				t.Fatalf("panels = %d, want %d", len(fig.Panels), tt.wantPanels)
			}
			for _, panel := range fig.Panels {
				if len(panel.Series) != len(tt.wantSeries) {
					t.Fatalf("panel %q series = %d, want %d",
						panel.Title, len(panel.Series), len(tt.wantSeries))
				}
				for i, s := range panel.Series {
					if s.Label != tt.wantSeries[i] {
						t.Fatalf("series %d label = %q, want %q", i, s.Label, tt.wantSeries[i])
					}
					if len(s.Points) != len(rc.Sizes) {
						t.Fatalf("series %q has %d points, want %d",
							s.Label, len(s.Points), len(rc.Sizes))
					}
					for j, pt := range s.Points {
						if pt.X != rc.Sizes[j] {
							t.Fatalf("point %d X = %d, want %d", j, pt.X, rc.Sizes[j])
						}
						if pt.Mean < 1 || pt.Mean > float64(pt.X) {
							t.Fatalf("series %q point %d mean %v out of range", s.Label, j, pt.Mean)
						}
						if pt.Runs < rc.Replicate.MinRuns {
							t.Fatalf("point used %d runs, want >= %d", pt.Runs, rc.Replicate.MinRuns)
						}
					}
				}
			}
		})
	}
}

func TestFormat(t *testing.T) {
	fig := Figure{
		ID:    "10",
		Title: "test",
		Panels: []Panel{{
			Title: "d=6",
			Series: []Series{
				{Label: "A", Points: []Point{{X: 20, Mean: 7.5, CI: 0.3}}},
				{Label: "B", Points: []Point{{X: 20, Mean: 9.1, CI: 0.4}}},
			},
		}},
	}
	out := Format(fig)
	for _, want := range []string{"Figure 10", "[d=6]", "A", "B", "7.50", "9.10", "20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Content(t *testing.T) {
	out := Table1()
	for _, want := range []string{
		"Rule k, Span", "MPR", "LENWB", "DP, PDP", "SBA",
		"Static", "First-receipt", "First-receipt-with-backoff",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
	// The FRB row has no neighbor-designating entry.
	lines := strings.Split(out, "\n")
	found := false
	for _, line := range lines {
		if strings.Contains(line, "First-receipt-with-backoff") {
			found = true
			if !strings.Contains(line, "-") {
				t.Fatalf("FRB row should have an empty ND cell: %q", line)
			}
		}
	}
	if !found {
		t.Fatal("FRB row missing")
	}
}

// TestPaperAndQuickPresets: the paper's criterion is stricter than the
// quick default every CLI run uses unless -paper is given.
func TestPaperAndQuickPresets(t *testing.T) {
	p := Paper()
	if p.RelTol != 0.01 || p.MinRuns != 30 {
		t.Fatalf("Paper() = %+v", p)
	}
	q := Criterion(stats.ReplicateOptions{})
	if q.MaxRuns >= p.MaxRuns || q.RelTol <= p.RelTol {
		t.Fatalf("default criterion %+v not quicker than Paper()", q)
	}
}

// TestFigure10ShapeTiny checks the headline qualitative result on a reduced
// sweep: static produces more forward nodes than FR on average.
func TestFigure10ShapeTiny(t *testing.T) {
	rc := RunConfig{
		Sizes:     []int{60},
		Degrees:   []int{6},
		Replicate: stats.ReplicateOptions{MinRuns: 25, MaxRuns: 30, RelTol: 0.2},
		Seed:      11,
	}
	fig, err := Figure10(rc)
	if err != nil {
		t.Fatal(err)
	}
	series := fig.Panels[0].Series
	static := series[0].Points[0].Mean
	fr := series[1].Points[0].Mean
	if static <= fr {
		t.Fatalf("Static (%v) should exceed FR (%v)", static, fr)
	}
}

func TestVariantMetricsRespected(t *testing.T) {
	// Figure 13's variants carry different metrics; ensure they propagate
	// into distinct results.
	rc := RunConfig{
		Sizes:     []int{60},
		Degrees:   []int{6},
		Replicate: stats.ReplicateOptions{MinRuns: 20, MaxRuns: 25, RelTol: 0.2},
		Seed:      13,
	}
	fig, err := Figure13(rc)
	if err != nil {
		t.Fatal(err)
	}
	id := fig.Panels[0].Series[0].Points[0].Mean
	deg := fig.Panels[0].Series[1].Points[0].Mean
	if id == deg {
		t.Fatal("ID and Degree metrics produced identical means; metric likely not applied")
	}
	_ = view.MetricNCR // silence unused-import lint if tests shrink
}
