package sim_test

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// A lossy hello exchange's result plugs into PerNodeViews as it is.
var _ sim.NodeViews = (*hello.Views)(nil)

// fixedViews is a hand-built sim.NodeViews: node v sees graphs[v] and knows
// its view incomplete iff incomplete[v] (a nil slice flags no node).
type fixedViews struct {
	graphs     []*graph.Graph
	incomplete []bool
}

func (f fixedViews) Graph(v int) *graph.Graph { return f.graphs[v] }
func (f fixedViews) Incomplete(v int) bool    { return f.incomplete != nil && f.incomplete[v] }

// sameViews gives every one of g's nodes the view topology vg.
func sameViews(g, vg *graph.Graph) fixedViews {
	f := fixedViews{graphs: make([]*graph.Graph, g.N())}
	for v := range f.graphs {
		f.graphs[v] = vg
	}
	return f
}

// TestNodeViewsPerNodeDecisions pins the PerNodeViews semantics: each node's
// pruning decision runs on its OWN graph while packets propagate over the
// actual topology — one node's wrong view must not leak into its neighbors'
// decisions.
func TestNodeViewsPerNodeDecisions(t *testing.T) {
	// Actual topology: path 0-1-2-3. Node 2's private view adds a phantom
	// link {1,3}, so 2 believes its neighbors are directly connected and
	// prunes itself; every other node sees the truth. Node 3 is stranded.
	actual := pathGraph(t, 4)
	wrong := pathGraph(t, 4)
	if err := wrong.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	views := sameViews(actual, actual)
	views.graphs[2] = wrong
	res, err := sim.Run(actual, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
		Hops:  2,
		Views: sim.PerNodeViews{Views: views},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 {
		t.Fatalf("delivered = %d, want 3 (node 3 stranded by node 2's phantom link)", res.Delivered)
	}
	for _, v := range res.Forward {
		if v == 2 {
			t.Fatal("node 2 forwarded despite its view showing it covered")
		}
	}

	// Control: truthful per-node views reach everyone, same as no views.
	res, err = sim.Run(actual, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
		Hops:  2,
		Views: sim.PerNodeViews{Views: sameViews(actual, actual)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("truthful per-node views delivered %d/%d", res.Delivered, res.N)
	}
}

// TestNodeViewsLosslessHelloMatchesDefault is the end-to-end identity at the
// heart of the pipeline: views from a LOSSLESS k-round hello exchange plugged
// in as PerNodeViews reproduce the default run (k-hop views of the true
// topology) result-for-result, for every timing policy. Hello loss — and
// nothing else — is what makes per-node views diverge.
func TestNodeViewsLosslessHelloMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	views, err := hello.Exchange(net.G, hello.Config{Rounds: 2, LossRate: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, timing := range []protocol.Timing{
		protocol.TimingStatic,
		protocol.TimingFirstReceipt,
		protocol.TimingBackoffRandom,
	} {
		want, err := sim.Run(net.G, 0, protocol.Generic(timing), sim.Config{Hops: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(net.G, 0, protocol.Generic(timing), sim.Config{
			Hops:  2,
			Seed:  9,
			Views: sim.PerNodeViews{Views: views},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Delivered != want.Delivered || got.Finish != want.Finish ||
			got.Receipts != want.Receipts || len(got.Forward) != len(want.Forward) {
			t.Fatalf("%v: lossless hello views diverged from default: got %+v want %+v",
				timing, got, want)
		}
		for i := range got.Forward {
			if got.Forward[i] != want.Forward[i] {
				t.Fatalf("%v: forward sets diverge at %d: %v vs %v",
					timing, i, got.Forward, want.Forward)
			}
		}
	}
}

// TestConservativeFallbackRefusesNonForward pins the fallback mechanism on a
// hand-built scenario: a node whose view lost the link to a downstream
// neighbor wrongly prunes itself and strands that neighbor; flagged as
// provably incomplete under the fallback, it forwards instead and delivery
// is restored.
func TestConservativeFallbackRefusesNonForward(t *testing.T) {
	// Actual topology: path 0-1-2-3. Node 2's private view is missing the
	// link {2,3} (say node 3's hellos were lost): node 2 sees its only
	// neighbor 1 already visited, concludes it is covered, and prunes.
	actual := pathGraph(t, 4)
	truncated := pathGraph(t, 3) // nodes 0-1-2 only
	blind := graph.New(4)
	for _, e := range truncated.Edges() {
		if err := blind.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	views := sameViews(actual, actual)
	views.graphs[2] = blind
	views.incomplete = []bool{false, false, true, false}

	res, err := sim.Run(actual, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
		Hops:  2,
		Views: sim.PerNodeViews{Views: views},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 {
		t.Fatalf("without fallback delivered = %d, want 3", res.Delivered)
	}

	rec := &sim.Recorder{}
	res, err = sim.Run(actual, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
		Hops:     2,
		Views:    sim.PerNodeViews{Views: views, Hold: true},
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("with fallback delivered %d/%d", res.Delivered, res.N)
	}
	forwarded := false
	for _, v := range res.Forward {
		if v == 2 {
			forwarded = true
		}
	}
	if !forwarded {
		t.Fatal("flagged node 2 did not forward under the fallback")
	}
	for _, e := range rec.Events() {
		if e.Kind == sim.TraceNonForward && e.Node == 2 {
			t.Fatal("flagged node 2 took non-forward status under the fallback")
		}
	}
}

// TestConservativeFallbackEndToEnd drives the full pipeline on a lossy
// exchange: hello loss costs delivery, and the conservative fallback buys a
// large part of it back at the price of more forward nodes.
func TestConservativeFallbackEndToEnd(t *testing.T) {
	var lostDelivery, recovered, extraForward float64
	runs := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		net, err := geo.Generate(geo.Config{N: 80, AvgDegree: 6}, rng)
		if err != nil {
			continue
		}
		views, err := hello.Exchange(net.G, hello.Config{Rounds: 2, LossRate: 0.3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		base := sim.Config{Hops: 2, Seed: seed, Views: sim.PerNodeViews{Views: views}}
		plain, err := sim.Run(net.G, 0, protocol.Generic(protocol.TimingFirstReceipt), base)
		if err != nil {
			t.Fatal(err)
		}
		withFB := base
		withFB.Views = sim.PerNodeViews{Views: views, Hold: true}
		fb, err := sim.Run(net.G, 0, protocol.Generic(protocol.TimingFirstReceipt), withFB)
		if err != nil {
			t.Fatal(err)
		}
		lostDelivery += float64(fb.N - plain.Delivered)
		recovered += float64(fb.Delivered - plain.Delivered)
		extraForward += float64(fb.ForwardCount() - plain.ForwardCount())
		runs++
	}
	if runs < 10 {
		t.Fatalf("only %d usable runs", runs)
	}
	if lostDelivery == 0 {
		t.Skip("30% hello loss caused no delivery loss on these seeds")
	}
	if recovered < lostDelivery/2 {
		t.Fatalf("fallback recovered %.0f of %.0f lost deliveries, want at least half",
			recovered, lostDelivery)
	}
	if extraForward <= 0 {
		t.Fatal("fallback recovered delivery for free — forward counts should rise")
	}
}

// TestNodeViewsValidation covers the failure modes of the per-node view
// configuration: a missing view source and malformed per-node graphs.
func TestNodeViewsValidation(t *testing.T) {
	g := pathGraph(t, 4)
	proto := protocol.Generic(protocol.TimingFirstReceipt)

	if _, err := sim.Run(g, 0, proto, sim.Config{Views: sim.PerNodeViews{Hold: true}}); err == nil {
		t.Fatal("PerNodeViews without a view source accepted")
	}
	if _, err := sim.Run(g, 0, proto, sim.Config{Views: sim.PerNodeViews{Views: sameViews(g, nil)}}); err == nil {
		t.Fatal("nil per-node view accepted")
	}
	small := graph.New(2)
	if _, err := sim.Run(g, 0, proto, sim.Config{Views: sim.PerNodeViews{Views: sameViews(g, small)}}); err == nil {
		t.Fatal("size-mismatched per-node view accepted")
	}
}
