// Command experiments regenerates the paper's evaluation figures and Table 1
// as text tables.
//
// Usage:
//
//	experiments -fig 10            # one figure (10..16)
//	experiments -all               # every figure
//	experiments -table1            # Table 1
//	experiments -fig 15 -paper     # full ±1% CI criterion (slow)
//	experiments -ext mobility      # extension experiments and ablations
//	experiments -ext crash -crashfracs 0,0.1,0.3   # degradation sweeps
//	experiments -scale             # large-n sweep (1k..1M nodes, d=18)
//	experiments -scale -scalesizes 1000,5000 -scalereps 3   # trimmed sweep
//	experiments -all -parallel 4   # parallel replication, identical output
//	experiments -fig 10 -cpuprofile cpu.out -memprofile mem.out
//	experiments -fig 10 -tracedir traces -progress   # JSONL export + live progress
//	experiments -all -paper -debugaddr localhost:6060   # expvar/pprof during a long sweep
package main

import (
	"expvar"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"adhocbcast/internal/experiments"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/render"
	"adhocbcast/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig    = fs.String("fig", "", "figure id to reproduce (10..16)")
		all    = fs.Bool("all", false, "reproduce every figure")
		table1 = fs.Bool("table1", false, "print Table 1")
		ext    = fs.String("ext", "", "extension experiment: mobility, reliability, piggyback, backoff, visitedunion, cluster, latency, crash, crashforward, loss, helloloss, hellolossforward, hellolosslatency, restart, restartlatency, load")
		scale  = fs.Bool("scale", false, "run the large-n scale sweep (delivery/forward/latency beyond the paper's n=100)")
		ssizes = fs.String("scalesizes", "", "comma-separated network sizes for -scale (default 1000,5000,10000,25000,100000,1000000)")
		sdeg   = fs.Int("scaledegree", 0, "average degree for -scale (default 18; sparse degrees are not connectable at large n)")
		sreps  = fs.Int("scalereps", 0, "replicates per -scale point (default 5)")
		paper  = fs.Bool("paper", false, "use the paper's ±1% CI replication criterion")
		seed   = fs.Int64("seed", 42, "base workload seed")
		svgDir = fs.String("svgdir", "", "also write each figure as an SVG chart into this directory")
		sizes  = fs.String("sizes", "", "comma-separated network sizes (default 20..100)")
		crash  = fs.String("crashfracs", "", "comma-separated crash fractions for -ext crash/crashforward (default 0,0.05,0.1,0.2,0.3)")
		loss   = fs.String("lossrates", "", "comma-separated loss rates for -ext loss (default 0,0.05,0.1,0.2,0.3)")
		hello  = fs.String("hellorates", "", "comma-separated hello loss rates for -ext helloloss* (default 0,0.05,0.1,0.2,0.3)")
		rrates = fs.String("restartrates", "", "comma-separated restart fractions for -ext restart* (default 0,0.1,0.2,0.3,0.4)")
		lrates = fs.String("loadrates", "", "comma-separated offered loads (sessions/slot) for -ext load (default 0.02,0.05,0.1,0.2,0.4)")
		lreps  = fs.Int("loadreps", 0, "replicates per -ext load point (default 5)")
		par    = fs.Int("parallel", 1, "replicates evaluated concurrently per data point (results are identical for any value)")
		cpu    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		mem    = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		trace  = fs.String("tracedir", "", "export per-replicate JSONL run records and event traces into this directory (one file per data point)")
		prog   = fs.Bool("progress", false, "print replication progress (replicates done, relative CI, estimated total) to stderr")
		debug  = fs.String("debugaddr", "", "serve expvar and pprof on this address (e.g. localhost:6060) with live replication counters under \"experiments\"")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// 0 selects the default replicate count; a negative count is a typo,
	// not a request for the default.
	if *sreps < 0 {
		return fmt.Errorf("-scalereps %d: replicate count must not be negative", *sreps)
	}
	if *lreps < 0 {
		return fmt.Errorf("-loadreps %d: replicate count must not be negative", *lreps)
	}
	if *par < 0 {
		return fmt.Errorf("-parallel %d: replicate parallelism must not be negative", *par)
	}
	// -ext load is the CLI's own sweep; every other value is a figure-type
	// extension experiment.
	if exts := append(experiments.AllExtensionIDs(), "load"); *ext != "" && !slices.Contains(exts, *ext) {
		return fmt.Errorf("-ext %q: unknown extension (valid: %s)", *ext, strings.Join(exts, ", "))
	}
	if *trace != "" {
		// Fail now, not after hours of sweeping: trace export opens its
		// files per data point, so an unwritable directory would otherwise
		// surface mid-run.
		if err := validateWritableDir(*trace); err != nil {
			return fmt.Errorf("-tracedir: %w", err)
		}
	}
	if *cpu != "" {
		f, err := os.Create(*cpu)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *mem != "" {
		f, err := os.Create(*mem)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *table1 {
		fmt.Print(experiments.Table1())
		return nil
	}
	rc := experiments.RunConfig{Seed: *seed, ReplicateParallelism: *par, TraceDir: *trace}
	if *paper {
		rc.Replicate = experiments.Paper()
	}
	rc.Progress = progressFunc(*prog, *debug)
	if *debug != "" {
		// The default mux already serves /debug/pprof/ (the blank pprof
		// import) and /debug/vars (expvar); the listener lives for the
		// whole process.
		go func() {
			if err := http.ListenAndServe(*debug, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: debugaddr:", err)
			}
		}()
	}
	var err error
	if rc.Sizes, err = parseInts(*sizes, "-sizes"); err != nil {
		return err
	}
	if rc.CrashFractions, err = parseFloats(*crash, "-crashfracs"); err != nil {
		return err
	}
	if rc.LossRates, err = parseFloats(*loss, "-lossrates"); err != nil {
		return err
	}
	if rc.HelloLossRates, err = parseFloats(*hello, "-hellorates"); err != nil {
		return err
	}
	if rc.RestartRates, err = parseFloats(*rrates, "-restartrates"); err != nil {
		return err
	}
	emit := func(f experiments.Figure) error {
		fmt.Println(experiments.Format(f))
		if *svgDir == "" {
			return nil
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		name := filepath.Join(*svgDir, "figure-"+sanitize(f.ID)+".svg")
		out, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := render.Chart(out, f); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", name)
		return nil
	}
	if *scale {
		sc := experiments.ScaleConfig{Seed: *seed, Degree: *sdeg, Replicates: *sreps}
		if sc.Sizes, err = parseInts(*ssizes, "-scalesizes"); err != nil {
			return err
		}
		// -parallel keeps its figure-sweep meaning (replicates measured
		// concurrently); left at its default the scale sweep uses every
		// core, which is safe because results are schedule-independent.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "parallel" {
				sc.Parallelism = *par
			}
		})
		return runScale(sc)
	}
	if *ext == "load" {
		// The saturation sweep measures traffic curves, not a paper figure,
		// so it has its own row type and streaming output (like -scale).
		lc := experiments.LoadConfig{Seed: *seed, Replicates: *lreps, Parallelism: *par}
		if lc.Rates, err = parseFloats(*lrates, "-loadrates"); err != nil {
			return err
		}
		return runLoad(lc)
	}
	if *ext != "" {
		f, err := experiments.ExtensionByID(*ext, rc)
		if err != nil {
			return err
		}
		return emit(f)
	}
	ids := []string{*fig}
	if *all {
		ids = experiments.AllFigureIDs()
	} else if *fig == "" {
		fs.Usage()
		return fmt.Errorf("need -fig, -all, -ext, or -table1")
	}
	for _, id := range ids {
		f, err := experiments.FigureByID(id, rc)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	return nil
}

// progressEvery throttles -progress output to one line per this many
// replicates per data point (the converged/exhausted line always prints).
const progressEvery = 25

// progressFunc builds the replication-progress callback: stderr lines when
// print is set, live expvar counters when debugAddr is set, nil when
// neither. Data points are measured concurrently, so printing is serialized.
func progressFunc(print bool, debugAddr string) func(string, stats.ProgressUpdate) {
	var live *obsv.LiveCounters
	if debugAddr != "" {
		// Re-publishing panics, so reuse the var across run() invocations.
		if v, ok := expvar.Get("experiments").(*obsv.LiveCounters); ok {
			live = v
		} else {
			live = &obsv.LiveCounters{}
			expvar.Publish("experiments", live)
		}
	}
	if !print && live == nil {
		return nil
	}
	var mu sync.Mutex
	return func(point string, u stats.ProgressUpdate) {
		if live != nil {
			if u.Exhausted {
				live.PointExhausted()
			} else {
				live.AddReplicate()
				if u.Converged {
					live.PointConverged()
				}
			}
		}
		if !print || (!u.Converged && !u.Exhausted && u.Done%progressEvery != 0) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case u.Converged:
			fmt.Fprintf(os.Stderr, "progress: %s: converged after %d replicates (rel-CI %.2f%%)\n",
				point, u.Done, 100*u.RelCI)
		case u.Exhausted:
			fmt.Fprintf(os.Stderr, "progress: %s: replication cap hit at %d replicates (rel-CI %.2f%%)\n",
				point, u.Done, 100*u.RelCI)
		default:
			fmt.Fprintf(os.Stderr, "progress: %s: %d replicates of ~%d estimated (rel-CI %.2f%%)\n",
				point, u.Done, u.EstTotal, 100*u.RelCI)
		}
	}
}

// runScale streams the large-n sweep: each point prints as soon as it
// completes, so the small sizes confirm the setup while the big ones run.
func runScale(sc experiments.ScaleConfig) error {
	lastN := -1
	sc.Emit = func(r experiments.ScaleRow) {
		if r.N != lastN {
			if lastN != -1 {
				fmt.Println()
			}
			fmt.Printf("n=%d (%d replicates)\n", r.N, r.Replicates)
			fmt.Printf("  %-16s %16s %16s %18s\n",
				"variant", "delivery %", "forward %", "latency (slots)")
			lastN = r.N
		}
		fmt.Println("  " + experiments.FormatScaleRow(r))
	}
	_, err := experiments.Scale(sc)
	return err
}

// runLoad streams the saturation sweep: each offered-load point prints as
// soon as it completes, light loads first, so the knee emerges live.
func runLoad(lc experiments.LoadConfig) error {
	lastRate := -1.0
	lc.Emit = func(r experiments.LoadRow) {
		if r.Rate != lastRate {
			if lastRate != -1 {
				fmt.Println()
			}
			fmt.Printf("offered load %.3f sessions/slot (%d replicates)\n", r.Rate, r.Replicates)
			fmt.Printf("  %-18s %16s %15s %14s %14s %14s\n",
				"variant", "throughput", "delivery %", "p50 (slots)", "p99 (slots)", "qdrops/sess")
			lastRate = r.Rate
		}
		fmt.Println("  " + experiments.FormatLoadRow(r))
	}
	_, err := experiments.Load(lc)
	return err
}

// validateWritableDir creates dir if needed and proves it writable by
// creating and removing a probe file.
func validateWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe, err := os.CreateTemp(dir, ".writable-*")
	if err != nil {
		return fmt.Errorf("directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}

// parseInts parses a comma-separated int list; "" yields nil (defaults).
func parseInts(s, flagName string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &n); err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, tok, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFloats parses a comma-separated list of finite floats; "" yields nil
// (defaults).
func parseFloats(s, flagName string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		var x float64
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%g", &x); err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, tok, err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("bad %s entry %q: not a finite number", flagName, tok)
		}
		out = append(out, x)
	}
	return out, nil
}

// sanitize keeps figure ids filesystem-safe.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, id)
}
