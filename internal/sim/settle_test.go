package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

func generateSettle(t *testing.T, n int, d float64, seed int64) *graph.Graph {
	t.Helper()
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: d}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net.G
}

// TestSettledCounts pins what settled verdicts save, in counts the code
// determines: a warm Generic-Static run evaluates nothing (its Init reads the
// settle pass's bits); a warm Generic-FR run evaluates exactly the timers of
// nodes its pristine verdict leaves unsettled and settles the rest; a cold
// FR run at n = 100 runs no settle pass and evaluates every timer, while one
// at n = 2000, where a view build splits in two, runs the pass.
func TestSettledCounts(t *testing.T) {
	g := generateSettle(t, 100, 18, 1)
	cfg := sim.Config{Hops: 2, Seed: 1}
	run := func(a *sim.Arena, g *graph.Graph, p sim.Protocol) sim.Result {
		t.Helper()
		res, err := sim.RunWith(a, g, 0, p, cfg)
		if err != nil || !res.FullDelivery() {
			t.Fatalf("%s: err %v, delivered %d/%d", p.Name(), err, res.Delivered, res.N)
		}
		return res
	}

	arena := sim.NewArena()
	run(arena, g, protocol.Generic(protocol.TimingFirstReceipt))
	if settled, evaluated, passed := sim.SettleCounts(arena); settled != 0 || passed != 0 || evaluated != 0 {
		t.Errorf("cold FR at n=100: %d settled, %d evaluated, %d pass evaluations; want no settled verdicts at all", settled, evaluated, passed)
	}
	if _, ok := sim.PristineCovered(arena, 0); ok {
		t.Error("cold FR at n=100 left settled verdicts behind")
	}

	run(arena, g, protocol.Generic(protocol.TimingStatic)) // warm views, first settled verdicts: the pass
	if settled, evaluated, passed := sim.SettleCounts(arena); settled != 100 || evaluated != 0 || passed != 100 {
		t.Errorf("Static on a set without verdicts: %d settled, %d evaluated, %d pass evaluations; want 100, 0, 100", settled, evaluated, passed)
	}
	run(arena, g, protocol.Generic(protocol.TimingStatic))
	if settled, evaluated, passed := sim.SettleCounts(arena); settled != 100 || evaluated != 0 || passed != 0 {
		t.Errorf("warm Static: %d settled, %d evaluated, %d pass evaluations; want 100, 0, 0", settled, evaluated, passed)
	}

	run(arena, g, protocol.Generic(protocol.TimingFirstReceipt))
	// Every node but the source decides once, at the timer its first copy
	// sets.
	var unsettled int64
	for v := 1; v < g.N(); v++ {
		if c, _ := sim.PristineCovered(arena, v); !c {
			unsettled++
		}
	}
	settled, evaluated, passed := sim.SettleCounts(arena)
	if evaluated != unsettled || settled != 99-unsettled || passed != 0 {
		t.Errorf("warm FR: %d settled, %d evaluated, %d pass evaluations; want %d, %d, 0", settled, evaluated, passed, 99-unsettled, unsettled)
	}
	if unsettled == 0 || unsettled == 99 {
		t.Errorf("%d of 99 timers unsettled: the count shows nothing", unsettled)
	}

	big := generateSettle(t, 2000, 18, 2)
	arena = sim.NewArena()
	run(arena, big, protocol.Generic(protocol.TimingFirstReceipt))
	if settled, evaluated, passed := sim.SettleCounts(arena); passed != 2000 || settled+evaluated != 1999 {
		t.Errorf("cold FR at n=2000: %d settled, %d evaluated, %d pass evaluations; want a pass of 2000 and 1999 verdicts", settled, evaluated, passed)
	}
}

// TestSettledOnlyWhereTheLemmaHolds runs every registered protocol on an
// arena that holds the generic condition's settled verdicts for the graph,
// and once more on per-node views of it: only the engines whose condition is
// generic and that designate no one (Generic under every timing, and SP, its
// FR twin) may take a settled verdict, and none may under per-node views,
// which are built afresh from graphs of their own.
func TestSettledOnlyWhereTheLemmaHolds(t *testing.T) {
	g := generateSettle(t, 60, 8, 3)
	vs, err := hello.Exchange(g, hello.Config{Rounds: 2, LossRate: 0.3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	settling := map[string]bool{"generic-static": true, "generic-fr": true, "generic-frb": true, "generic-frbd": true, "sp": true}
	arena := sim.NewArena()
	for _, name := range protocol.Names() {
		mk, _ := protocol.ByName(name)
		for _, views := range []sim.Views{nil, sim.PerNodeViews{Views: vs}} {
			if _, err := sim.RunWith(arena, g, 0, protocol.Generic(protocol.TimingStatic), sim.Config{Hops: 2}); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.RunWith(arena, g, 0, mk(), sim.Config{Hops: 2, Views: views}); err != nil {
				t.Fatal(err)
			}
			settled, evaluated, passed := sim.SettleCounts(arena)
			if took := settled+evaluated+passed > 0; took != (settling[name] && views == nil) {
				t.Errorf("%s (views %T): %d settled, %d evaluated, %d pass evaluations", name, views, settled, evaluated, passed)
			}
		}
	}
}

// TestSettledStaleBits is the regression test for settled verdicts that
// outlive their views: one arena runs a protocol on shared views (after
// Generic-Static has settled them), then on per-node views, then on another
// graph, hop count and metric, then the strong condition on the same views,
// and at every step the Result, trace and run record equal those of a fresh
// arena. Bits kept from the shared views would, for one, make Generic-FR
// under lossy per-node views prune nodes its own view does not cover.
func TestSettledStaleBits(t *testing.T) {
	g, other := generateSettle(t, 80, 8, 4), generateSettle(t, 60, 10, 5)
	vs, err := hello.Exchange(g, hello.Config{Rounds: 2, LossRate: 0.3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res   sim.Result
		trace []obsv.TraceEvent
		rec   *obsv.RunRecord
	}
	run := func(a *sim.Arena, g *graph.Graph, p sim.Protocol, cfg sim.Config) outcome {
		t.Helper()
		rec := &sim.Recorder{}
		cfg.Observer, cfg.Metrics = rec, obsv.NewRunRecord()
		res, err := sim.RunWith(a, g, 7, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res, rec.Events(), cfg.Metrics}
	}
	steps := []struct {
		name string
		g    *graph.Graph
		cfg  sim.Config
	}{
		{"shared", g, sim.Config{Hops: 2, Seed: 1}},
		{"per-node", g, sim.Config{Hops: 2, Views: sim.PerNodeViews{Views: vs}, Seed: 1}},
		{"per-node-hold", g, sim.Config{Hops: 2, Views: sim.PerNodeViews{Views: vs, Hold: true}, Seed: 1}},
		{"other-graph", other, sim.Config{Hops: 2, Seed: 2}},
		{"3-hop", g, sim.Config{Hops: 3, Seed: 3}},
		{"degree", g, sim.Config{Hops: 3, Metric: view.MetricDegree, Seed: 4}},
		{"shared-again", g, sim.Config{Hops: 2, Seed: 1}},
	}
	protos := []func() sim.Protocol{
		func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) },
		func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) },
		func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffDegree) },
		func() sim.Protocol { return protocol.GenericStrong(protocol.TimingStatic) },
		func() sim.Protocol { return protocol.GenericStrong(protocol.TimingFirstReceipt) },
	}
	arena := sim.NewArena()
	for _, mk := range protos {
		for _, st := range steps {
			// Settle the step's shared views under the generic condition
			// first, so that every run below starts on an arena holding
			// settled verdicts: its views' own, or another set's.
			settle := st.cfg
			settle.Views = nil
			run(arena, st.g, protocol.Generic(protocol.TimingStatic), settle)
			got, want := run(arena, st.g, mk(), st.cfg), run(nil, st.g, mk(), st.cfg)
			name := mk().Name() + " " + st.name
			if !reflect.DeepEqual(got.res, want.res) {
				t.Errorf("%s: result diverged\n arena: %+v\n fresh: %+v", name, got.res, want.res)
			}
			if !reflect.DeepEqual(got.trace, want.trace) {
				t.Errorf("%s: trace diverged at event %d", name, firstTraceDiff(got.trace, want.trace))
			}
			if !reflect.DeepEqual(got.rec, want.rec) {
				t.Errorf("%s: run record diverged", name)
			}
		}
	}
}

// TestSettlePassMatchesEvaluator checks a split settle pass bit by bit: at
// n = 2000 a pass on two workers splits in two (view.Ranges), and every
// node's settled verdict must be the generic condition on its own 2-hop view.
func TestSettlePassMatchesEvaluator(t *testing.T) {
	g := generateSettle(t, 2000, 18, 6)
	arena := sim.NewArena()
	if _, err := sim.RunWith(arena, g, 0, protocol.Generic(protocol.TimingStatic), sim.Config{Hops: 2, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	base := view.BasePriorities(g, view.MetricID)
	ev, b := core.NewEvaluator(g.N()), view.NewBuilder()
	covered := 0
	for v := 0; v < g.N(); v++ {
		got, ok := sim.PristineCovered(arena, v)
		want := ev.Covered(b.Build(g, v, 2, base))
		if !ok || got != want {
			t.Fatalf("node %d: settled verdict %v (held %v), its view evaluates %v", v, got, ok, want)
		}
		if want {
			covered++
		}
	}
	if covered == 0 || covered == g.N() {
		t.Errorf("%d of %d nodes covered: the check shows nothing", covered, g.N())
	}
}

// TestSettledMatchesUnsettledAtScale compares the four Generic timings with
// settled verdicts against the same runs without them (per-node views of the
// actual graph, which the simulator never settles), at n = 2000, where a
// warm run's sharded timer verdicts take settled bits on helper goroutines.
func TestSettledMatchesUnsettledAtScale(t *testing.T) {
	g := generateSettle(t, 2000, 18, 7)
	arena := sim.NewArena()
	same := sim.PerNodeViews{Views: actualViews{g}}
	for _, timing := range []protocol.Timing{protocol.TimingStatic, protocol.TimingFirstReceipt, protocol.TimingBackoffRandom, protocol.TimingBackoffDegree} {
		for rep := 0; rep < 2; rep++ { // cold, then warm
			cfg := sim.Config{Hops: 2, Seed: int64(rep + 1)}
			got, err := sim.RunWith(arena, g, rep, protocol.Generic(timing), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Views = same
			want, err := sim.Run(g, rep, protocol.Generic(timing), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v rep %d: settled run %+v, unsettled %+v", timing, rep, got, want)
			}
		}
	}
	if settled, _, _ := sim.SettleCounts(arena); settled == 0 {
		t.Error("no verdict settled: the comparison shows nothing")
	}
}

// actualViews gives every node the actual graph as its per-node view.
type actualViews struct{ g *graph.Graph }

func (a actualViews) Graph(int) *graph.Graph { return a.g }
func (actualViews) Incomplete(int) bool      { return false }
