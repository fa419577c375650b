package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// reportSchema versions the report, detail and span files.
const reportSchema = "bench/v1"

// exactCounts are the per-layer metrics that count simulated or cached work.
// For one seed they must repeat exactly, run after run and commit after
// commit, unless a change altered what the system computes.
var exactCounts = []string{
	"stats.replicates", "sim.forward_total", "sim.receipts_total", "sim.copies_total",
	"grid.hits", "grid.misses",
}

// report is the file -all and -repeat write: where and on what the numbers
// were taken, every constant that sized a workload, and the sets of runs.
type report struct {
	Schema    string `json:"schema"`
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	// Transport states what the fleet rows crossed: the host's loopback
	// interface, never a real link.
	Transport string `json:"fleet_transport"`
	Sizes     sizes  `json:"sizes"`
	// Sets holds one map per full set of runs, keyed "<workload>/trace<0|1>".
	Sets []map[string]*detail `json:"sets"`
	// Spread is filled by -repeat: per workload and end-to-end metric, the
	// minimum, median, maximum and (max-min)/median over the sets.
	Spread map[string]map[string]spread `json:"spread,omitempty"`
}

type spread struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Unit   string  `json:"unit"`
}

func newReport(d dirs, seed int64, seconds int) *report {
	return &report{
		Schema: reportSchema, Commit: commit(d), GoVersion: runtime.Version(),
		NProc: runtime.GOMAXPROCS(0), CPU: cpuModel(), Seed: seed, Seconds: seconds,
		Transport: "loopback UDP", Sizes: full,
	}
}

// commit names the measured commit; a checkout without git metadata (the
// benchmark driver's) reports "unknown".
func commit(d dirs) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = d.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func (rep *report) write(d dirs, path string) error {
	if path == "" {
		path = filepath.Join(d.out, "report.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("report: %s\n", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSet runs every workload once in the given trace mode, each in its own
// child process so that peak memory is per workload, and returns their
// details keyed "<workload>/trace<mode>". A workload whose checks fail still
// yields its metrics; only a child that produced no result is an error.
func runSet(ctx context.Context, d dirs, seed int64, seconds, trace int) (map[string]*detail, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := make(map[string]*detail)
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, self,
			"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Dir = d.bench
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		// On cancellation ask, so the child kills its fleet and removes its
		// temp dirs; only a child that ignores that for 10 s is killed.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		os.Remove(detailPath(d, w.name, trace))
		runErr := cmd.Run()
		// The child's last line is its result object, for the driver; the
		// lines above it are the same numbers for people.
		table, _, _ := strings.Cut(stdout.String(), "\n{\"correct\"")
		fmt.Println(table)
		data, err := os.ReadFile(detailPath(d, w.name, trace))
		if err != nil {
			return nil, fmt.Errorf("%s: no result (%v)", w.name, runErr)
		}
		var det detail
		if err := json.Unmarshal(data, &det); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		set[fmt.Sprintf("%s/trace%d", w.name, trace)] = &det
	}
	return set, nil
}

// setOK reports whether every run of the set passed its checks.
func setOK(set map[string]*detail) bool {
	for _, det := range set {
		if !det.Correct || det.Failed > 0 {
			return false
		}
	}
	return true
}

// runRepeat runs k full sets — end to end, then traced — and checks that the
// benchmark agrees with itself: every end-to-end metric's (max-min)/median
// within its bound on every workload, every exact count identical across the
// sets, no failed operation anywhere.
func runRepeat(ctx context.Context, d dirs, spec *benchSpec, seed int64, seconds, k int, out string) int {
	rep := newReport(d, seed, seconds)
	ok := true
	for i := 0; i < k; i++ {
		set := make(map[string]*detail)
		for trace := 0; trace <= 1; trace++ {
			part, err := runSet(ctx, d, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			for key, det := range part {
				set[key] = det
			}
		}
		ok = ok && setOK(set)
		rep.Sets = append(rep.Sets, set)
	}

	rep.Spread = make(map[string]map[string]spread)
	fmt.Printf("\n%-20s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range workloads {
		rep.Spread[w.name] = make(map[string]spread)
		for _, ms := range spec.EndToEnd {
			var xs []float64
			for _, set := range rep.Sets {
				xs = append(xs, set[w.name+"/trace0"].Metrics[ms.Name].Value)
			}
			sort.Float64s(xs)
			s := spread{Min: xs[0], Median: median(xs), Max: xs[len(xs)-1], Bound: ms.Bound, Unit: ms.Unit}
			s.Spread = (s.Max - s.Min) / s.Median
			rep.Spread[w.name][ms.Name] = s
			verdict := ""
			if s.Spread > s.Bound {
				verdict = "  SPREAD EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-20s %-14s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%%s\n",
				w.name, ms.Name, s.Min, s.Median, s.Max, 100*s.Spread, 100*s.Bound, verdict)
		}
		for _, name := range exactCounts {
			first := rep.Sets[0][w.name+"/trace1"].Metrics[name].Value
			for i, set := range rep.Sets {
				if v := set[w.name+"/trace1"].Metrics[name].Value; v != first {
					fmt.Printf("%-20s %-14s set %d reads %v, set 0 read %v  EXACT COUNT DIFFERS\n", w.name, name, i, v, first)
					ok = false
				}
			}
		}
	}
	if err := rep.write(d, out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
