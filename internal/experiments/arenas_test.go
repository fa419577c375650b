package experiments

import (
	"runtime"
	"testing"

	"adhocbcast/internal/stats"
)

// TestPooledArenasLeaveNoTrace is the driver-level half of the arena contract
// (internal/sim's TestUsedArenaIsFreshArena is the per-run half): what a sweep
// prints must not depend on what the arenas it borrows ran before. Every
// figure, every extension, the load sweep and the scale sweep is formatted
// once serially on an emptied pool — so its first replicates run on new
// arenas — and then twice more, with serial and with four concurrent
// replicates, on whatever the sweeps before it (other sizes, depths, metrics,
// protocols and traffic runs) left in the pool. The three must be the same
// bytes. Not parallel with other tests: it empties the package's pool.
func TestPooledArenasLeaveNoTrace(t *testing.T) {
	smoke := func(replicates int) RunConfig {
		return RunConfig{
			Sizes:                []int{20, 35},
			Degrees:              []int{6},
			Replicate:            stats.ReplicateOptions{MinRuns: 3, MaxRuns: 4, RelTol: 0.5},
			Seed:                 11,
			ReplicateParallelism: replicates,
			CrashFractions:       []float64{0, 0.3},
			LossRates:            []float64{0, 0.3},
			HelloLossRates:       []float64{0, 0.3},
			RestartRates:         []float64{0, 0.3},
		}
	}
	type driver struct {
		name string
		run  func(replicates int) (string, error)
	}
	figure := func(name string, run func(RunConfig) (Figure, error)) driver {
		return driver{name, func(replicates int) (string, error) {
			fig, err := run(smoke(replicates))
			return Format(fig), err
		}}
	}
	var drivers []driver
	for _, d := range registry {
		drivers = append(drivers, figure(d.id, d.run))
	}
	drivers = append(drivers,
		driver{"load", func(replicates int) (string, error) {
			cfg := smallLoad()
			cfg.Parallelism = replicates
			rows, err := Load(cfg)
			return FormatLoad(rows), err
		}},
		driver{"scale", func(replicates int) (string, error) {
			cfg := testScaleConfig()
			cfg.Parallelism = replicates
			rows, err := Scale(cfg)
			return foldRows(rows, ScaleWriter), err
		}})
	for _, d := range drivers {
		// A sync.Pool is empty after two collections; the arenas come back
		// with the sweeps below, for the next driver to find.
		runtime.GC()
		runtime.GC()
		want, err := d.run(1)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		for _, replicates := range []int{1, 4} {
			got, err := d.run(replicates)
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			if got != want {
				t.Fatalf("%s with %d concurrent replicates on used arenas diverged from new arenas:\n got %s\nwant %s",
					d.name, replicates, got, want)
			}
		}
	}
}
