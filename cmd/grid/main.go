// Command grid executes the repository's declarative experiment grid with
// content-addressed result caching: every committed results_*.txt table is
// regenerated from grid.json, each data point's result is stored under the
// SHA-256 of its canonical configuration, and reruns skip every point whose
// cached file verifies — an interrupted sweep resumes where it died.
//
// Usage:
//
//	grid                            # run the full grid (grid.json, cache in .gridcache)
//	grid -table results_all.txt     # regenerate one table
//	grid -list                      # enumerate points and their cache state, compute nothing
//	grid -require-cached            # fail on any cache miss (prove a warm rerun)
//	grid -verify                    # check every cached point, manifest, and table hash
//	grid -spec grid.json -cache .gridcache -out .   # the defaults, spelled out
//
// Cached point files and table manifests are JSONL sealed with obsv/v1 hash
// chains and written atomically, so kills leave no partial state and -verify
// detects any flipped byte.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"

	"adhocbcast/internal/grid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "grid:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	flags := flag.NewFlagSet("grid", flag.ContinueOnError)
	var (
		specPath = flags.String("spec", "grid.json", "grid spec file (built-in default spec if the file does not exist)")
		cacheDir = flags.String("cache", ".gridcache", "content-addressed point cache directory")
		outDir   = flags.String("out", ".", "directory generated tables are written to")
		tables   = flags.String("table", "", "comma-separated table outputs to run (default all)")
		list     = flags.Bool("list", false, "list grid points and their cache state without computing")
		verify   = flags.Bool("verify", false, "verify cached points, manifests, and table hashes, then exit")
		require  = flags.Bool("require-cached", false, "fail on any cache miss instead of computing")
		par      = flags.Int("parallel", 0, "replicates evaluated concurrently per data point (default 1 for figures, every core for scale and load; results are identical for any value)")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *par < 0 {
		return fmt.Errorf("-parallel %d: replicate parallelism must not be negative", *par)
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	cache, err := grid.OpenCache(*cacheDir)
	if err != nil {
		return err
	}
	opts := grid.Options{
		Spec:                 spec,
		Cache:                cache,
		OutDir:               *outDir,
		RequireCached:        *require,
		ReplicateParallelism: *par,
		Log: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	}
	if *tables != "" {
		for _, t := range strings.Split(*tables, ",") {
			opts.Tables = append(opts.Tables, strings.TrimSpace(t))
		}
	}
	switch {
	case *verify:
		points, err := grid.Verify(opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "verified %d cached point(s)\n", points)
		return nil
	case *list:
		points, err := grid.List(opts)
		if err != nil {
			return err
		}
		cached := 0
		for _, p := range points {
			state := "miss"
			if p.Cached {
				state = "cached"
				cached++
			}
			fmt.Fprintf(out, "%-6s %.12s %s\n", state, p.Hash, p.Point)
		}
		fmt.Fprintf(out, "%d point(s), %d cached\n", len(points), cached)
		return nil
	default:
		st, err := grid.Run(opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d point(s): %d cached, %d computed\n", st.Points, st.Hits, st.Misses)
		return nil
	}
}

// loadSpec reads the spec file, falling back to the built-in default grid
// when the default path does not exist (so the tool works from any directory
// without a spec); a named -spec that is missing is still an error.
func loadSpec(path string) (grid.Spec, error) {
	spec, err := grid.LoadSpec(path)
	if errors.Is(err, fs.ErrNotExist) && path == "grid.json" {
		return grid.DefaultSpec(), nil
	}
	return spec, err
}
