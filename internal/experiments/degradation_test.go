package experiments

import (
	"reflect"
	"testing"

	"adhocbcast/internal/stats"
)

// degradeTestConfig trims the sweeps so the qualitative shape tests stay
// fast while keeping enough replication to separate the curves.
func degradeTestConfig(seed int64) RunConfig {
	return RunConfig{
		Degrees:        []int{6},
		Replicate:      stats.ReplicateOptions{MinRuns: 15, MaxRuns: 20, RelTol: 0.3},
		Seed:           seed,
		CrashFractions: []float64{0, 0.3},
		LossRates:      []float64{0, 0.3},
	}
}

func seriesByLabel(t *testing.T, panel Panel) map[string]Series {
	t.Helper()
	byLabel := map[string]Series{}
	for _, s := range panel.Series {
		byLabel[s.Label] = s
	}
	return byLabel
}

func TestCrashDegradationShape(t *testing.T) {
	fig, err := CrashDegradation(degradeTestConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := seriesByLabel(t, fig.Panels[0])
	last := func(label string) float64 {
		s := byLabel[label]
		return s.Points[len(s.Points)-1].Mean
	}
	// Flooding's redundancy keeps reachable delivery highest under crashes.
	flood := last("Flooding")
	for _, label := range []string{"Generic-FR", "Generic-FRB"} {
		if last(label) > flood {
			t.Fatalf("%s (%.2f%%) above flooding (%.2f%%) at max crash fraction", label, last(label), flood)
		}
	}
	// The pruner must actually degrade as the crash fraction rises.
	frb := byLabel["Generic-FRB"]
	if frb.Points[len(frb.Points)-1].Mean >= frb.Points[0].Mean {
		t.Fatalf("Generic-FRB did not degrade with crash fraction: %.2f%% -> %.2f%%",
			frb.Points[0].Mean, frb.Points[len(frb.Points)-1].Mean)
	}
	// The NACK layer must measurably close the gap for the same pruner.
	if last("Generic-FRB+NACK") <= last("Generic-FRB") {
		t.Fatalf("NACK recovery did not improve FRB under crashes: %.2f%% vs %.2f%%",
			last("Generic-FRB+NACK"), last("Generic-FRB"))
	}
}

func TestCrashForwardRatioShape(t *testing.T) {
	fig, err := CrashForwardRatio(degradeTestConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := seriesByLabel(t, fig.Panels[0])
	// Flooding forwards from (nearly) every delivered node; the pruners must
	// stay well below it at every sweep point.
	for i := range byLabel["Flooding"].Points {
		flood := byLabel["Flooding"].Points[i].Mean
		frb := byLabel["Generic-FRB"].Points[i].Mean
		if frb >= flood {
			t.Fatalf("point %d: FRB forward ratio (%.2f%%) not below flooding (%.2f%%)", i, frb, flood)
		}
	}
}

func TestLossDegradationShape(t *testing.T) {
	fig, err := LossDegradation(degradeTestConfig(25))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := seriesByLabel(t, fig.Panels[0])
	// With a perfect channel every variant delivers fully.
	for _, s := range fig.Panels[0].Series {
		if s.Points[0].Mean != 100 {
			t.Fatalf("%s delivered %.2f%% with no loss", s.Label, s.Points[0].Mean)
		}
	}
	last := func(label string) float64 {
		s := byLabel[label]
		return s.Points[len(s.Points)-1].Mean
	}
	if last("Generic-FRB+NACK") <= last("Generic-FRB") {
		t.Fatalf("NACK recovery did not improve FRB at 30%% loss: %.2f%% vs %.2f%%",
			last("Generic-FRB+NACK"), last("Generic-FRB"))
	}
}

func TestDegradationDeterministicAcrossParallelism(t *testing.T) {
	// Same seed and plan parameters must give byte-identical figures
	// regardless of how the replication loop is scheduled.
	base := RunConfig{
		Degrees:        []int{8},
		Replicate:      stats.ReplicateOptions{MinRuns: 8, MaxRuns: 12, RelTol: 0.5},
		Seed:           7,
		CrashFractions: []float64{0.2},
		LossRates:      []float64{0.2},
	}
	for _, id := range []string{"crash", "loss"} {
		id := id
		t.Run(id, func(t *testing.T) {
			serial := base
			serial.ReplicateParallelism = 1
			parallel := base
			parallel.ReplicateParallelism = 4
			a, err := runDriver("ext:"+id, serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runDriver("ext:"+id, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("figure differs across ReplicateParallelism:\nserial:   %+v\nparallel: %+v", a, b)
			}
		})
	}
}
