// Command bcastsim runs a single broadcast simulation on a random unit disk
// graph and prints the outcome, optionally rendering the Figure 9 style
// sample network as ASCII art.
//
// Usage:
//
//	bcastsim -n 100 -d 6 -proto Generic-FR -hops 2 -metric degree
//	bcastsim -render                      # Figure 9 sample scenario
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"adhocbcast/internal/experiments"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	svgrender "adhocbcast/internal/render"
	"adhocbcast/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcastsim:", err)
		os.Exit(1)
	}
}

// viewLabel names a view depth the way sim.Config.Hops reads it: zero or
// negative selects the global view.
func viewLabel(hops int) string {
	if hops <= 0 {
		return "global views"
	}
	return fmt.Sprintf("%d-hop views", hops)
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcastsim", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 100, "number of nodes")
		d      = fs.Float64("d", 6, "average node degree")
		proto  = fs.String("proto", "generic-fr", "protocol: "+strings.Join(protocol.Names(), ", "))
		hops   = fs.Int("hops", 2, "k-hop view depth (0 = global)")
		metric = fs.String("metric", "id", "priority metric: id, degree, ncr")
		seed   = fs.Int64("seed", 1, "workload seed")
		source = fs.Int("source", -1, "broadcast source (-1 = random)")
		render = fs.Bool("render", false, "render the Figure 9 sample scenario")
		svg    = fs.String("svg", "", "write an SVG rendering of the broadcast to this file")
		trace  = fs.Bool("trace", false, "print the full event trace of the broadcast")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *render {
		s, err := experiments.NewSample(*n, *d, *seed)
		if err != nil {
			return err
		}
		for _, r := range s.Runs {
			fmt.Println(s.Render(r, 72, 30))
		}
		return nil
	}
	mk, ok := protocol.ByName(*proto)
	if !ok {
		return fmt.Errorf("unknown protocol %q (valid: %s)", *proto, strings.Join(protocol.Names(), ", "))
	}
	m, ok := protocol.MetricByName(*metric)
	if !ok {
		return fmt.Errorf("unknown metric %q (valid: id, degree, ncr)", *metric)
	}
	rng := rand.New(rand.NewSource(*seed))
	net, err := geo.Generate(geo.Config{N: *n, AvgDegree: *d}, rng)
	if err != nil {
		return err
	}
	src := *source
	if src < 0 {
		src = rng.Intn(*n)
	}
	var rec *sim.Recorder
	cfg := sim.Config{Hops: *hops, Metric: m, Seed: *seed + 1}
	if *trace {
		rec = &sim.Recorder{}
		cfg.Observer = rec
	}
	res, err := sim.Run(net.G, src, mk(), cfg)
	if err != nil {
		return err
	}
	if rec != nil {
		fmt.Print(rec.Format())
	}
	fmt.Printf("network: n=%d, links=%d (avg degree %.2f), range=%.2f\n",
		net.G.N(), net.G.M(), net.G.AverageDegree(), net.Range)
	fmt.Printf("protocol: %s, %s, %s priority, source %d\n", *proto, viewLabel(*hops), *metric, src)
	fmt.Printf("forward nodes: %d of %d  (delivered: %d, finish time: %.2f)\n",
		res.ForwardCount(), res.N, res.Delivered, res.Finish)
	fmt.Printf("forward set: %v\n", res.Forward)
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s: %d of %d forward nodes (n=%d, d=%.0f)",
			*proto, res.ForwardCount(), res.N, *n, *d)
		if err := svgrender.SVG(f, net, res.Forward, svgrender.SVGOptions{Title: title}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *svg)
	}
	if !res.FullDelivery() {
		return fmt.Errorf("delivery incomplete: %d of %d nodes", res.Delivered, res.N)
	}
	return nil
}
