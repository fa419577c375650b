package experiments

import (
	"testing"

	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// TestScanBackoffWindow is a calibration aid, not a regression test: run
// with -run ScanBackoffWindow -v to see how the FRB/FRBD forward counts
// respond to the backoff window size.
func TestScanBackoffWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration scan")
	}
	rc := RunConfig{Sizes: []int{100}, Degrees: []int{6}}
	rc = rc.withDefaults()
	for _, w := range []float64{2, 4, 8, 16, 32} {
		for _, timing := range []protocol.Timing{protocol.TimingBackoffRandom, protocol.TimingBackoffDegree} {
			v := variant{
				label: timing.String(),
				cfg:   sim.Config{Hops: 2, Metric: view.MetricID, BackoffWindow: w},
				make:  func() sim.Protocol { return protocol.Generic(timing) },
			}
			sum, err := rc.measure(rc.sizeCell("windowscan", 100, 6, v))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("window=%4.0f  %-4s  mean=%.2f ±%.2f (runs=%d)", w, v.label, sum.Mean, sum.HalfWidth90, sum.N)
		}
	}
}
