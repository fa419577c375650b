// Command bench is the repository's performance ledger: six workloads over
// the paper figure, the 200k-node engine, the saturation sweep, the grid
// cache, and a live bcastnode fleet, measured end to end (tracing off) and
// per layer (a separate traced run). It lives outside the layers it measures
// and reaches them only through their public functions; spans are recorded
// here, around those calls. BENCHMARK.json at the repository root names the
// workloads, the metrics, their units and their regression bounds, and this
// program refuses to emit a metric that file does not name. See README.md.
//
// One workload, as the benchmark driver runs it (last stdout line is one
// JSON object with the keys correct, attempted, failed, metrics):
//
//	go run -C bench . --workload scale_200k --seed 42 --seconds 10 --trace 0
//
// Every workload, each in its own child process, with a report file:
//
//	go run -C bench . -all -seed 42 -out out/report.json            # end to end
//	go run -C bench . -all -seed 42 -trace 1 -out out/traced.json   # per layer
//	go run -C bench . -repeat 2                                     # spread check
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runDeadline bounds one workload run from the inside, below the driver's
// 180 s limit, so a hung fleet is torn down by this process and not left to
// whoever kills it.
const runDeadline = 170 * time.Second

func main() {
	code := mainCode()
	runCleanups()
	os.Exit(code)
}

func mainCode() int {
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print its result object as the last line")
		seed     = flag.Int64("seed", 42, "workload seed: the only input of every workload")
		seconds  = flag.Int("seconds", 0, "measuring time per run in seconds (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		all      = flag.Bool("all", false, "run every workload, each in its own child process")
		repeat   = flag.Int("repeat", 0, "run K full sets (end to end and traced) and check the spread of every end-to-end metric against its bound")
		out      = flag.String("out", "", "with -all / -repeat: write the report JSON here (default out/report.json)")
		update   = flag.Bool("update-golden", false, "rewrite golden/ from this run instead of comparing (default seed only)")
	)
	flag.Parse()
	fail := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return code
	}
	if flag.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		return fail(2, errors.New("-trace takes 0 or 1"))
	}
	d, err := locate()
	if err != nil {
		return fail(2, err)
	}
	spec, err := loadSpec(filepath.Join(d.root, "BENCHMARK.json"))
	if err != nil {
		return fail(2, err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		if *workload == "" {
			// -all / -repeat: the child in flight gets SIGTERM through ctx
			// and cleans up after itself; runSet returns once it is gone.
			return
		}
		// Long simulator calls cannot observe ctx, so a workload run is
		// torn down from here: fleet children and temp dirs go first.
		runCleanups()
		os.Exit(130)
	}()

	switch {
	case *workload != "":
		time.AfterFunc(runDeadline, func() {
			fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v deadline\n", *workload, runDeadline)
			runCleanups()
			os.Exit(3)
		})
		r := newRun(ctx, d, spec, *workload, *seed, time.Duration(*seconds)*time.Second, full)
		r.updateGolden = *update
		det, err := runWorkload(r, *trace == 1)
		if err != nil {
			return fail(1, err)
		}
		det.print(os.Stdout)
		line, err := json.Marshal(det.result)
		if err != nil {
			return fail(1, err)
		}
		fmt.Println(string(line))
		if !det.Correct || det.Failed > 0 {
			return 1
		}
		return 0
	case *repeat > 0:
		return runRepeat(ctx, d, spec, *seed, *seconds, *repeat, *out)
	case *all:
		set, err := runSet(ctx, d, *seed, *seconds, *trace)
		if err != nil {
			return fail(1, err)
		}
		rep := newReport(d, *seed, *seconds)
		rep.Sets = []map[string]*detail{set}
		if err := rep.write(d, *out); err != nil {
			return fail(1, err)
		}
		if !setOK(set) {
			return 1
		}
		return 0
	default:
		flag.Usage()
		return 2
	}
}

// dirs are the directories the benchmark works in. Everything it writes goes
// under out, which the root .gitignore names.
type dirs struct {
	root  string // repository root: the parent of this package's directory
	bench string // this package's directory
	out   string // bench/out: reports, traces, the bcastnode binary, temp dirs
}

// locate finds the repository root from the working directory, which is
// either the package directory (go run -C bench) or the root itself.
func locate() (dirs, error) {
	wd, err := os.Getwd()
	if err != nil {
		return dirs{}, err
	}
	for _, root := range []string{filepath.Dir(wd), wd} {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "grid_spec.json")); err != nil {
			continue
		}
		b := filepath.Join(root, "bench")
		return dirs{root: root, bench: b, out: filepath.Join(b, "out")}, nil
	}
	return dirs{}, errors.New("run from the repository root or from bench/: BENCHMARK.json not found")
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: that file is the
// single place workload and metric names, units and bounds are defined.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, end_to_end and per_layer are required", path)
	}
	return &s, nil
}

// metrics returns the metric set a run with the given trace mode must emit.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// cleanups holds what must not outlive the process: fleet children and temp
// directories. They run on every exit path — return, error, deadline, signal.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

// atExit registers fn to run once before the process exits.
func atExit(fn func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	cleanups.fns = append(cleanups.fns, fn)
}

// runCleanups runs the registered functions, newest first. The lock is held
// throughout, so a signal arriving during a normal exit waits for the first
// caller to finish instead of exiting under it.
func runCleanups() {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	for i := len(cleanups.fns) - 1; i >= 0; i-- {
		cleanups.fns[i]()
	}
	cleanups.fns = nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
