package sim_test

import (
	"testing"

	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// TestViewsOnlyWhereRead counts the views single runs on a fresh arena keep
// at n = 2000, where a view build splits in two: a settling protocol that
// retires views (Generic under every timing) keeps exactly the views of the
// nodes whose settled bit is clear, and every dropped node's View is nil;
// Flooding keeps none; a designating protocol (DP) and the same Generic run
// with every copy merged keep all of them, and so does every simdebug build
// of a settling run, whose Settled.check evaluates real views.
func TestViewsOnlyWhereRead(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-node runs")
	}
	g := generateSettle(t, 2000, 18, 8)
	cfg := sim.Config{Hops: 2, Seed: 1}
	count := func(t *testing.T, a *sim.Arena) (kept, clear int) {
		t.Helper()
		for v := 0; v < g.N(); v++ {
			covered, ok := sim.PristineCovered(a, v)
			if !ok {
				t.Fatal("the run left no settled verdicts")
			}
			if sim.HasView(a, v) {
				kept++
			} else if !covered {
				t.Fatalf("node %d: view dropped, settled bit clear", v)
			}
			if !covered {
				clear++
			}
		}
		return kept, clear
	}
	for _, name := range []string{"generic-static", "generic-fr", "generic-frb", "generic-frbd"} {
		t.Run(name, func(t *testing.T) {
			mk, _ := protocol.ByName(name)
			a := sim.NewArena()
			if _, err := sim.RunWith(a, g, 0, mk(), cfg); err != nil {
				t.Fatal(err)
			}
			kept, clear := count(t, a)
			want := clear
			if sim.DebugChecks {
				want = g.N()
			}
			if kept != want || clear == 0 || clear == g.N() {
				t.Errorf("kept %d views, %d settled bits clear of %d; want %d views", kept, clear, g.N(), want)
			}
			sim.MergeEverywhere(t)
			if _, err := sim.RunWith(a, g, 0, mk(), cfg); err != nil {
				t.Fatal(err)
			}
			if kept, _ := count(t, a); kept != g.N() {
				t.Errorf("merging everywhere: kept %d views of %d", kept, g.N())
			}
		})
	}
	for _, c := range []struct {
		name string
		want int
	}{{"flooding", 0}, {"dp", g.N()}} {
		mk, _ := protocol.ByName(c.name)
		a := sim.NewArena()
		if _, err := sim.RunWith(a, g, 0, mk(), cfg); err != nil {
			t.Fatal(err)
		}
		kept := 0
		for v := 0; v < g.N(); v++ {
			if sim.HasView(a, v) {
				kept++
			}
		}
		if kept != c.want {
			t.Errorf("%s: kept %d views, want %d", c.name, kept, c.want)
		}
	}
}

// TestCompactedArenaIsFreshArena alternates one arena over the kinds of view
// set a run asks for at n = 2000: compacted (Generic-FR), full without
// verdicts (DP, which designates), compacted and static (Generic-Static),
// none (Flooding), compacted again (Generic-FRB), and per-node views, twice
// round, so every kind follows every other and repeats warm. Each run's
// Result, trace and run record equal those of a fresh arena.
func TestCompactedArenaIsFreshArena(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-node runs")
	}
	g := generateSettle(t, 2000, 18, 9)
	own := sim.PerNodeViews{Views: actualViews{g}}
	steps := []struct {
		proto string
		views sim.Views
	}{
		{"generic-fr", nil}, {"dp", nil}, {"generic-static", nil}, {"flooding", nil}, {"generic-frb", nil}, {"generic-fr", own},
	}
	arena := sim.NewArena()
	for round := 0; round < 2; round++ {
		for i, st := range steps {
			mk, _ := protocol.ByName(st.proto)
			cfg := sim.Config{Hops: 2, Views: st.views, Seed: int64(10*round + i)}
			got := runObserved(t, arena, g, 3+i, nil, mk, cfg)
			want := runObserved(t, nil, g, 3+i, nil, mk, cfg)
			if d := diffOutcomes(got, want); d != "" {
				t.Errorf("round %d, %s (views %T): the %s differs from a fresh arena's", round, st.proto, st.views, d)
			}
		}
	}
}
