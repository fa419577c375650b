package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Summarize computes the summary of the given samples in two passes: the
// reference Accumulator.Summary is checked against.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	sum := 0.0
	for _, x := range samples {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{N: 1, Mean: mean, HalfWidth90: math.Inf(1)}
	}
	ss := 0.0
	for _, x := range samples {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	hw := T90(n-1) * sd / math.Sqrt(float64(n))
	return Summary{N: n, Mean: mean, StdDev: sd, HalfWidth90: hw}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("Summarize(nil) = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if !math.IsInf(s.HalfWidth90, 1) {
		t.Fatal("single sample must have infinite CI")
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	// Samples 2, 4, 6: mean 4, sd 2, half-width t(2)=2.920 * 2/sqrt(3).
	s := Summarize([]float64{2, 4, 6})
	if s.Mean != 4 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Fatalf("sd = %v", s.StdDev)
	}
	want := 2.920 * 2 / math.Sqrt(3)
	if math.Abs(s.HalfWidth90-want) > 1e-9 {
		t.Fatalf("half-width = %v, want %v", s.HalfWidth90, want)
	}
}

func TestSummarizeConstantSamples(t *testing.T) {
	s := Summarize([]float64{5, 5, 5, 5})
	if s.StdDev != 0 || s.HalfWidth90 != 0 {
		t.Fatalf("constant samples: %+v", s)
	}
	if s.RelativeCI() != 0 {
		t.Fatalf("RelativeCI = %v", s.RelativeCI())
	}
}

func TestRelativeCIZeroMean(t *testing.T) {
	s := Summary{Mean: 0, HalfWidth90: 1}
	if !math.IsInf(s.RelativeCI(), 1) {
		t.Fatal("zero mean must give infinite relative CI")
	}
}

func TestT90Monotone(t *testing.T) {
	if !math.IsInf(T90(0), 1) {
		t.Fatal("T90(0) must be infinite")
	}
	prev := T90(1)
	for df := 2; df <= 300; df++ {
		cur := T90(df)
		if cur > prev {
			t.Fatalf("T90 not non-increasing at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
	if T90(1) != 6.314 || T90(10) != 1.812 || T90(1000) != 1.645 {
		t.Fatal("T90 table values wrong")
	}
}

func TestRunUntilCIStopsAtTolerance(t *testing.T) {
	// Constant samples converge immediately at MinRuns.
	calls := 0
	s, err := RunUntilCI(ReplicateOptions{MinRuns: 5, MaxRuns: 100, RelTol: 0.01},
		func(i int) (float64, error) {
			calls++
			return 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("calls = %d, want exactly MinRuns", calls)
	}
	if s.N != 5 || s.Mean != 10 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestRunUntilCIKeepsGoing(t *testing.T) {
	// High-variance samples: with a tight tolerance the loop must use more
	// than MinRuns.
	rng := rand.New(rand.NewSource(1))
	s, err := RunUntilCI(ReplicateOptions{MinRuns: 5, MaxRuns: 5000, RelTol: 0.01},
		func(i int) (float64, error) {
			return 100 + rng.NormFloat64()*20, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if s.N <= 5 {
		t.Fatalf("stopped at %d runs despite high variance", s.N)
	}
	if s.RelativeCI() > 0.011 && s.N < 5000 {
		t.Fatalf("stopped early with CI %v after %d runs", s.RelativeCI(), s.N)
	}
}

func TestRunUntilCIHitsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := RunUntilCI(ReplicateOptions{MinRuns: 5, MaxRuns: 10, RelTol: 1e-9},
		func(i int) (float64, error) {
			return rng.Float64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 {
		t.Fatalf("N = %d, want MaxRuns 10", s.N)
	}
}

func TestRunUntilCISkipsErrors(t *testing.T) {
	s, err := RunUntilCI(ReplicateOptions{MinRuns: 3, MaxRuns: 20, RelTol: 0.5},
		func(i int) (float64, error) {
			if i%2 == 0 {
				return 0, errors.New("degenerate workload")
			}
			return 7, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 7 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestRunUntilCIAllErrors(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := RunUntilCI(ReplicateOptions{MinRuns: 2, MaxRuns: 5},
		func(i int) (float64, error) { return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sample error", err)
	}
}

func TestReplicateOptionsDefaults(t *testing.T) {
	o := ReplicateOptions{}.withDefaults()
	if o.MinRuns != 30 || o.MaxRuns != 2000 || o.RelTol != 0.01 {
		t.Fatalf("defaults = %+v", o)
	}
	o = ReplicateOptions{MinRuns: 50, MaxRuns: 10}.withDefaults()
	if o.MaxRuns != 50 {
		t.Fatalf("MaxRuns not raised to MinRuns: %+v", o)
	}
}

// TestSummarizeQuick property-checks mean bounds and CI positivity.
func TestSummarizeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		samples := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range samples {
			samples[i] = rng.Float64() * 100
			lo = math.Min(lo, samples[i])
			hi = math.Max(hi, samples[i])
		}
		s := Summarize(samples)
		if s.Mean < lo-1e-9 || s.Mean > hi+1e-9 {
			return false
		}
		return s.StdDev >= 0 && s.HalfWidth90 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}
