package experiments

import (
	"reflect"
	"testing"

	"adhocbcast/internal/stats"
)

// helloTestConfig trims the hello-loss sweep so the shape tests stay fast
// while keeping enough replication to separate the curves.
func helloTestConfig(seed int64) RunConfig {
	return RunConfig{
		Degrees:        []int{6},
		Replicate:      stats.ReplicateOptions{MinRuns: 15, MaxRuns: 20, RelTol: 0.3},
		Seed:           seed,
		HelloLossRates: []float64{0, 0.3},
	}
}

func TestHelloLossDeliveryShape(t *testing.T) {
	fig, err := HelloLossDelivery(helloTestConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := seriesByLabel(t, fig.Panels[0])
	// With lossless hellos the per-node views equal the paper's k-hop views,
	// so every variant delivers fully — the sweep's zero point is the paper.
	for _, s := range fig.Panels[0].Series {
		if s.Points[0].Mean != 100 {
			t.Fatalf("%s delivered %.2f%% with lossless hellos", s.Label, s.Points[0].Mean)
		}
	}
	last := func(label string) float64 {
		s := byLabel[label]
		return s.Points[len(s.Points)-1].Mean
	}
	// Flooding ignores views: hello loss cannot touch it.
	if last("Flooding") != 100 {
		t.Fatalf("flooding delivered %.2f%% under hello loss", last("Flooding"))
	}
	// The generic pruners must measurably degrade on imperfect views, and the
	// conservative fallback must buy delivery back for the same pruner.
	for _, label := range []string{"Generic-FR", "Generic-FRB"} {
		if last(label) >= 100 {
			t.Fatalf("%s did not degrade under 30%% hello loss: %.2f%%", label, last(label))
		}
		if last(label+"+CF") <= last(label) {
			t.Fatalf("conservative fallback did not improve %s: %.2f%% vs %.2f%%",
				label, last(label+"+CF"), last(label))
		}
	}
}

func TestHelloLossForwardRatioShape(t *testing.T) {
	fig, err := HelloLossForwardRatio(helloTestConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := seriesByLabel(t, fig.Panels[0])
	last := func(label string) float64 {
		s := byLabel[label]
		return s.Points[len(s.Points)-1].Mean
	}
	// The fallback's recovered delivery is paid in forward nodes: under hello
	// loss the +CF curve must sit above its plain counterpart and below (or
	// at) flooding's all-forward ceiling.
	for _, label := range []string{"Generic-FR", "Generic-FRB"} {
		if last(label+"+CF") <= last(label) {
			t.Fatalf("fallback did not raise %s forward ratio: %.2f%% vs %.2f%%",
				label, last(label+"+CF"), last(label))
		}
		if last(label+"+CF") > last("Flooding") {
			t.Fatalf("%s+CF forward ratio (%.2f%%) above flooding (%.2f%%)",
				label, last(label+"+CF"), last("Flooding"))
		}
	}
}

func TestHelloLossDeterministicAcrossParallelism(t *testing.T) {
	base := RunConfig{
		Degrees:        []int{8},
		Replicate:      stats.ReplicateOptions{MinRuns: 8, MaxRuns: 12, RelTol: 0.5},
		Seed:           9,
		HelloLossRates: []float64{0.2},
	}
	for _, id := range []string{"helloloss", "hellolossforward", "hellolosslatency"} {
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
