package core_test

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/view"
)

// TestEvaluatorMatchesStateless drives one reused Evaluator across many
// owners, graphs, view depths and broadcast states and checks every verdict
// against the stateless functions. Any scratch state leaking between
// evaluations would surface as a disagreement.
func TestEvaluatorMatchesStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ev := core.NewEvaluator(8) // deliberately undersized: ensure() must grow it
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(25)
		g := randomConnectedGraph(t, rng, n, 0.15+rng.Float64()*0.2)
		base := view.BasePriorities(g, view.MetricID)
		for owner := 0; owner < n; owner++ {
			hops := 2 + rng.Intn(2)
			lv := view.NewLocal(g, owner, hops, base)
			// Random broadcast state: some visited, some designated nodes.
			for k := 0; k < rng.Intn(5); k++ {
				lv.MarkVisited(rng.Intn(n))
			}
			for k := 0; k < rng.Intn(3); k++ {
				lv.MarkDesignated(rng.Intn(n))
			}
			if got, want := ev.Covered(lv), core.Covered(lv); got != want {
				t.Fatalf("trial %d owner %d: Covered = %v, stateless %v", trial, owner, got, want)
			}
			if got, want := ev.CoveredWithoutVisitedUnion(lv), new(core.Evaluator).CoveredWithoutVisitedUnion(lv); got != want {
				t.Fatalf("trial %d owner %d: CoveredWithoutVisitedUnion = %v, stateless %v",
					trial, owner, got, want)
			}
			if got, want := ev.StrongCovered(lv), core.StrongCovered(lv); got != want {
				t.Fatalf("trial %d owner %d: StrongCovered = %v, stateless %v", trial, owner, got, want)
			}
			for _, maxDist := range []int{1, 2} {
				got := ev.StrongCoveredRestricted(lv, maxDist)
				want := new(core.Evaluator).StrongCoveredRestricted(lv, maxDist)
				if got != want {
					t.Fatalf("trial %d owner %d maxDist %d: restricted = %v, stateless %v",
						trial, owner, maxDist, got, want)
				}
			}
		}
	}
}

// TestEvaluatorRepeatedCallIdempotent re-evaluates the same view twice on the
// same evaluator; the second call must see fully neutral scratch.
func TestEvaluatorRepeatedCallIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomConnectedGraph(t, rng, 20, 0.2)
	ev := core.NewEvaluator(g.N())
	base := view.BasePriorities(g, view.MetricDegree)
	for owner := 0; owner < g.N(); owner++ {
		lv := view.NewLocal(g, owner, 2, base)
		if ev.Covered(lv) != ev.Covered(lv) {
			t.Fatalf("owner %d: Covered not idempotent", owner)
		}
		if ev.StrongCovered(lv) != ev.StrongCovered(lv) {
			t.Fatalf("owner %d: StrongCovered not idempotent", owner)
		}
		if ev.StrongCoveredRestricted(lv, 1) != ev.StrongCoveredRestricted(lv, 1) {
			t.Fatalf("owner %d: StrongCoveredRestricted not idempotent", owner)
		}
	}
}
