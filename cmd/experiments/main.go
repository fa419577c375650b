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
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"adhocbcast/internal/experiments"
	"adhocbcast/internal/grid"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/render"
	"adhocbcast/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses the flags into one grid table — one section per figure under
// -all, else one section, each set by the sweep flags — and runs it through
// the grid's executor with no cache, printing each section to out as it
// completes.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		sec    grid.ExperimentSpec
		fig    = fs.String("fig", "", "figure id to reproduce (10..16)")
		all    = fs.Bool("all", false, "reproduce every figure")
		table1 = fs.Bool("table1", false, "print Table 1")
		ext    = fs.String("ext", "", "extension experiment: mobility, reliability, piggyback, backoff, visitedunion, cluster, latency, crash, crashforward, loss, helloloss, hellolossforward, hellolosslatency, restart, restartlatency, load")
		scale  = fs.Bool("scale", false, "run the large-n scale sweep (delivery/forward/latency beyond the paper's n=100)")
		svgDir = fs.String("svgdir", "", "also write each figure as an SVG chart into this directory")
		par    = fs.Int("parallel", 0, "replicates evaluated concurrently per data point (default 1 for figures, every core for -scale and -ext load; results are identical for any value)")
		cpu    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		mem    = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		trace  = fs.String("tracedir", "", "export per-replicate JSONL run records and event traces into this directory (one file per data point)")
		prog   = fs.Bool("progress", false, "print replication progress (replicates done, relative CI, estimated total) to stderr")
		debug  = fs.String("debugaddr", "", "serve expvar and pprof on this address (e.g. localhost:6060) with live replication counters under \"experiments\"")
	)
	fs.BoolVar(&sec.Paper, "paper", false, "use the paper's ±1% CI replication criterion")
	fs.Int64Var(&sec.Seed, "seed", 42, "base workload seed")
	listFlag(fs, &sec.Sizes, "sizes", "comma-separated network sizes (default 20..100)")
	listFlag(fs, &sec.CrashFractions, "crashfracs", "comma-separated crash fractions for -ext crash/crashforward (default 0,0.05,0.1,0.2,0.3)")
	listFlag(fs, &sec.LossRates, "lossrates", "comma-separated loss rates for -ext loss (default 0,0.05,0.1,0.2,0.3)")
	listFlag(fs, &sec.HelloLossRates, "hellorates", "comma-separated hello loss rates for -ext helloloss* (default 0,0.05,0.1,0.2,0.3)")
	listFlag(fs, &sec.RestartRates, "restartrates", "comma-separated restart fractions for -ext restart* (default 0,0.1,0.2,0.3,0.4)")
	listFlag(fs, &sec.ScaleSizes, "scalesizes", "comma-separated network sizes for -scale (default 1000,5000,10000,25000,100000,1000000)")
	fs.IntVar(&sec.ScaleDegree, "scaledegree", 0, "average degree for -scale (default 18; sparse degrees are not connectable at large n)")
	fs.IntVar(&sec.ScaleReps, "scalereps", 0, "replicates per -scale point (default 5)")
	listFlag(fs, &sec.LoadRates, "loadrates", "comma-separated offered loads (sessions/slot) for -ext load (default 0.02,0.05,0.1,0.2,0.4)")
	fs.IntVar(&sec.LoadReps, "loadreps", 0, "replicates per -ext load point (default 5)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *par < 0 {
		return fmt.Errorf("-parallel %d: replicate parallelism must not be negative", *par)
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
		_, err := io.WriteString(out, experiments.Table1())
		return err
	}
	var ids []string
	switch {
	case *scale:
		ids = []string{"scale"}
	case *ext == "load":
		ids = []string{"load"}
	case *ext != "":
		ids = []string{"ext:" + *ext}
	case *all:
		for _, id := range experiments.AllFigureIDs() {
			ids = append(ids, "fig"+id)
		}
	case *fig != "":
		ids = []string{"fig" + *fig}
	default:
		fs.Usage()
		return fmt.Errorf("need -fig, -all, -ext, -scale, or -table1")
	}
	var table grid.TableSpec
	for _, id := range ids {
		sec.ID = id
		table.Experiments = append(table.Experiments, sec)
	}
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
	base := experiments.RunConfig{ReplicateParallelism: *par, TraceDir: *trace, Progress: progressFunc(*prog, *debug)}
	svg := func(f experiments.Figure) error { return writeSVG(*svgDir, f) }
	if *svgDir == "" {
		svg = nil
	}
	return flagError(grid.Execute(out, table, base, svg), *ext, *fig)
}

// flagOf names the flag that sets each ExperimentSpec field the grid's
// validator can reject, keyed by the field's JSON name.
var flagOf = map[string]string{
	"crash_fractions":  "-crashfracs",
	"loss_rates":       "-lossrates",
	"hello_loss_rates": "-hellorates",
	"restart_rates":    "-restartrates",
	"scale_degree":     "-scaledegree",
	"scale_reps":       "-scalereps",
	"load_rates":       "-loadrates",
	"load_reps":        "-loadreps",
}

// flagError restates a spec validation error in terms of the flag behind
// the rejected field; an unknown id came from -ext or -fig, and the message
// lists what that flag accepts. Every other error passes through.
func flagError(err error, ext, fig string) error {
	var fe *grid.FieldError
	switch {
	case !errors.As(err, &fe):
		return err
	case fe.Field == "id" && ext != "":
		exts := append(experiments.AllExtensionIDs(), "load")
		return fmt.Errorf("-ext %q: unknown extension (valid: %s)", ext, strings.Join(exts, ", "))
	case fe.Field == "id":
		return fmt.Errorf("-fig %q: unknown figure (valid: %s)", fig, strings.Join(experiments.AllFigureIDs(), ", "))
	case flagOf[fe.Field] != "":
		return fmt.Errorf("%s: %s", flagOf[fe.Field], fe.Msg)
	}
	return err
}

// writeSVG writes figure f as an SVG chart into dir.
func writeSVG(dir string, f experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, "figure-"+unsafeID.ReplaceAllString(f.ID, "_")+".svg")
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

// listFlag defines a flag holding a comma-separated list, parsed into *dst;
// unset, *dst stays nil and the drivers' defaults apply. Range checks are
// the grid validator's.
func listFlag[T int | float64](fs *flag.FlagSet, dst *[]T, name, usage string) {
	fs.Func(name, usage, func(s string) error {
		*dst = nil
		for _, tok := range strings.Split(s, ",") {
			var x T
			if _, err := fmt.Sscan(strings.TrimSpace(tok), &x); err != nil {
				return fmt.Errorf("bad entry %q: %w", tok, err)
			}
			*dst = append(*dst, x)
		}
		return nil
	})
}

// unsafeID matches what a figure id may not carry into a file name.
var unsafeID = regexp.MustCompile(`[^A-Za-z0-9-]`)
