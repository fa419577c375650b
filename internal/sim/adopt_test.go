package sim_test

import (
	"testing"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// settledBy runs Generic-Static over g at hops on a fresh arena and returns
// the verdicts it hands out, and the arena.
func settledBy(t testing.TB, g *graph.Graph, hops int) ([]*sim.Settled, *sim.Arena) {
	t.Helper()
	a := sim.NewArena()
	if _, err := sim.RunWith(a, g, 0, protocol.Generic(protocol.TimingStatic), sim.Config{Hops: hops}); err != nil {
		t.Fatal(err)
	}
	kept := a.KeepVerdicts(g, nil)
	if len(kept) != 1 {
		t.Fatalf("a settling run handed out %d verdict sets, want 1", len(kept))
	}
	return kept, a
}

// TestAdoptedVerdictsMatchSettling pins that adopting another arena's
// settled verdicts changes nothing a run shows: for every registered
// protocol, in every scenario of runScenarios (shared, per-node and beaconed
// views, sharded or not, and traffic runs with the contention MAC, NACK
// recovery, loss and faults), a run on a fresh arena offered a Generic-Static
// arena's verdicts, and a second run reusing the set that adoption built,
// each equal a run on a fresh arena in Result, trace bytes and run record.
// No run offered its key's verdicts runs a settling pass, and the generic
// engines do take them.
func TestAdoptedVerdictsMatchSettling(t *testing.T) {
	g := generateSettle(t, 60, 8, 3)
	kept, _ := settledBy(t, g, 2)
	for _, sc := range runScenarios(t, g) {
		t.Run(sc.name, func(t *testing.T) {
			if sc.shard {
				sim.ShardEveryBatch(t)
			}
			for _, name := range protocol.Names() {
				mk, _ := protocol.ByName(name)
				t.Run(name, func(t *testing.T) {
					adopter := sim.NewArena()
					adopter.Adopt(kept)
					got := runObserved(t, adopter, g, 7, sc.sessions, mk, sc.cfg)
					settled, _, passed := sim.SettleCounts(adopter)
					again := runObserved(t, adopter, g, 7, sc.sessions, mk, sc.cfg)
					want := runObserved(t, sim.NewArena(), g, 7, sc.sessions, mk, sc.cfg)
					if d := diffOutcomes(got, want); d != "" {
						t.Errorf("adopting settled verdicts changed the %s", d)
					}
					if d := diffOutcomes(again, want); d != "" {
						t.Errorf("reusing the adopted set changed the %s", d)
					}
					if passed != 0 {
						t.Errorf("a run offered its key's verdicts ran a settling pass (%d evaluations)", passed)
					}
					if (name == "generic-static" || name == "generic-fr") && sc.cfg.Views == nil && settled == 0 {
						t.Errorf("%s took no adopted verdict", name)
					}
				})
			}
		})
	}
}

// TestAdoptedVerdictsIgnoreOtherKeys pins that a run takes offered verdicts
// only under their own key — topology pointer, hops, metric and condition
// id — as the settling pass counts show: a static run that takes them
// evaluates nothing, one that ignores them settles all 100 views itself. A
// first-receipt run takes them when they match (at n = 100 it would not
// settle on its own), self-pruning takes the generic condition's under
// another name, and a designating engine takes none. An arena drops an offer
// once its run starts, and KeepVerdicts hands out each key once and never
// writes the slice it is given.
func TestAdoptedVerdictsIgnoreOtherKeys(t *testing.T) {
	g := generateSettle(t, 100, 18, 1)
	other := generateSettle(t, 100, 18, 2)
	kept, settler := settledBy(t, g, 2)
	static := func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) }
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		mk     func() sim.Protocol
		cfg    sim.Config
		passed int64
		took   bool
	}{
		{"same key", g, static, sim.Config{Hops: 2}, 0, true},
		{"same key, first receipt", g, func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }, sim.Config{Hops: 2}, 0, true},
		{"same condition, SP", g, protocol.SelfPruningFR, sim.Config{Hops: 2}, 0, true},
		{"another graph of 100 nodes", other, static, sim.Config{Hops: 2}, 100, true},
		{"another graph, first receipt", other, func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }, sim.Config{Hops: 2}, 0, false},
		{"other hops", g, static, sim.Config{Hops: 3}, 100, true},
		{"another metric", g, static, sim.Config{Hops: 2, Metric: view.MetricDegree}, 100, true},
		{"the strong condition", g, func() sim.Protocol { return protocol.GenericStrong(protocol.TimingStatic) }, sim.Config{Hops: 2}, 100, true},
		{"designating, ND", g, protocol.NeighborDesignatingFR, sim.Config{Hops: 2}, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := sim.NewArena()
			a.Adopt(kept)
			res, err := sim.RunWith(a, c.g, 0, c.mk(), c.cfg)
			if err != nil || !res.FullDelivery() {
				t.Fatalf("err %v, delivered %d/%d", err, res.Delivered, res.N)
			}
			settled, evaluated, passed := sim.SettleCounts(a)
			if passed != c.passed || (settled+evaluated > 0) != c.took {
				t.Errorf("%d settled, %d evaluated, %d pass evaluations; want %d pass evaluations and verdicts taken %v",
					settled, evaluated, passed, c.passed, c.took)
			}
			if c.passed == 0 && c.took {
				for v := 0; v < g.N(); v++ {
					got, _ := sim.PristineCovered(a, v)
					want, _ := sim.PristineCovered(settler, v)
					if got != want {
						t.Fatalf("node %d: adopted verdict %v, the settling arena's %v", v, got, want)
					}
				}
			}
		})
	}

	a := sim.NewArena()
	a.Adopt(kept)
	if _, err := sim.RunWith(a, other, 0, static(), sim.Config{Hops: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunWith(a, g, 0, static(), sim.Config{Hops: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, passed := sim.SettleCounts(a); passed != 100 {
		t.Errorf("the run after the one offered verdicts made %d pass evaluations, want 100: the arena kept the offer", passed)
	}

	if got := settler.KeepVerdicts(g, kept); len(got) != 1 || got[0] != kept[0] {
		t.Errorf("handing out a key kept already returned %d sets", len(got))
	}
	if got := settler.KeepVerdicts(other, nil); got != nil {
		t.Errorf("an arena with verdicts over another graph handed out %d sets", len(got))
	}
	fr := sim.NewArena()
	if _, err := sim.RunWith(fr, g, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{Hops: 2}); err != nil {
		t.Fatal(err)
	}
	if got := fr.KeepVerdicts(g, nil); got != nil {
		t.Errorf("an arena that settled nothing handed out %d sets", len(got))
	}
	if _, err := sim.RunWith(settler, g, 0, static(), sim.Config{Hops: 3}); err != nil {
		t.Fatal(err)
	}
	roomy := append(make([]*sim.Settled, 0, 4), kept...)
	got := settler.KeepVerdicts(g, roomy)
	if len(got) != 2 || got[0] != kept[0] || roomy[:2][1] != nil {
		t.Errorf("handing out a second key returned %d sets, or wrote the slice it was given", len(got))
	}
}

// FuzzAdoptedVerdicts is TestAdoptedVerdictsMatchSettling over arbitrary
// small worlds: a graph of up to 16 vertices from an edge list (edgeGraph),
// a source, a registered protocol and 0-3 hops. A run on an arena offered a
// Generic-Static arena's verdicts must equal a run on a fresh arena in
// Result, trace bytes and run record, and run no settling pass.
func FuzzAdoptedVerdicts(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 0, 2}, uint8(0), uint8(2), uint8(2))
	f.Add([]byte{15, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 2, 6, 1, 7}, uint8(3), uint8(4), uint8(2))
	f.Add([]byte{9, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 6, 7}, uint8(0), uint8(1), uint8(3))
	f.Add([]byte{7, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 6, 6, 3, 0, 3}, uint8(1), uint8(3), uint8(0))
	names := protocol.Names()
	f.Fuzz(func(t *testing.T, edges []byte, source, proto, hops uint8) {
		if len(edges) == 0 {
			return
		}
		g, list := edgeGraph(t, edges)
		name := names[int(proto)%len(names)]
		mk, _ := protocol.ByName(name)
		cfg := sim.Config{Hops: int(hops) % 4, Seed: 1}
		kept, _ := settledBy(t, g, cfg.Hops)
		adopter := sim.NewArena()
		adopter.Adopt(kept)
		src := int(source) % g.N()
		got := runObserved(t, adopter, g, src, nil, mk, cfg)
		if _, _, passed := sim.SettleCounts(adopter); passed != 0 {
			t.Errorf("%s, %d hops, source %d on %v: a run offered its key's verdicts made %d pass evaluations", name, cfg.Hops, src, list, passed)
		}
		if d := diffOutcomes(got, runObserved(t, sim.NewArena(), g, src, nil, mk, cfg)); d != "" {
			t.Errorf("%s, %d hops, source %d on %v: adopting settled verdicts changed the %s", name, cfg.Hops, src, list, d)
		}
	})
}
