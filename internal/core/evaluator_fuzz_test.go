package core_test

import (
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/view"
)

// FuzzEvaluatorMatchesReference cross-checks the allocation-free Evaluator —
// both a fresh instance and one reused dirty across every fuzz input, the
// way a simulation reuses it across node decisions — against the slow
// reference on randomized graphs, views, and broadcast states. It pins two
// properties at once: the dense scratch bookkeeping computes the same
// condition as the naive definition, and every evaluation leaves the scratch
// neutral. The strong conditions are checked the same way.
func FuzzEvaluatorMatchesReference(f *testing.F) {
	f.Add([]byte{5, 0, 2, 0, 1, 1, 2, 2, 3, 0xff, 1})
	f.Add([]byte{14, 3, 1, 0, 1, 0, 2, 0, 3, 1, 2})
	f.Add([]byte{9, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0xff, 3, 5})
	f.Add([]byte{2, 1, 0})
	reused := core.NewEvaluator(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, owner, hops, marks := decodeGraph(data)
		if g == nil {
			return
		}
		for _, metric := range []view.Metric{view.MetricID, view.MetricDegree} {
			lv := view.NewLocal(g, owner, hops, view.BasePriorities(g, metric))
			// Mix visited and designated marks so the 1.5-status priority
			// level is exercised too.
			markMixed(lv, marks)
			checkConditions(t, lv, reused)
		}
	})
}

// conditions is one implementation of the four conditions.
type conditions struct {
	covered, coveredNoUnion, strong func(*view.Local) bool
	restricted                      func(*view.Local, int) bool
}

// stateless evaluates every condition on a zero Evaluator of its own, as the
// one-shot package functions do.
var stateless = conditions{
	core.Covered,
	func(lv *view.Local) bool { return new(core.Evaluator).CoveredWithoutVisitedUnion(lv) },
	core.StrongCovered,
	func(lv *view.Local, maxDist int) bool {
		return new(core.Evaluator).StrongCoveredRestricted(lv, maxDist)
	},
}

func conditionsOf(ev *core.Evaluator) conditions {
	return conditions{ev.Covered, ev.CoveredWithoutVisitedUnion, ev.StrongCovered, ev.StrongCoveredRestricted}
}

// check compares the implementation's verdicts on rv's view — generic with
// and without the visited union, strong, and strong restricted to 1 and 2
// hops — with the references, checks that strong implies generic, and
// returns the generic and strong verdicts. No t.Helper: the exhaustive test
// makes millions of these calls and the failure message names the case.
func (c conditions) check(t *testing.T, rv *refView, kind string) (generic, strong bool) {
	lv := rv.lv
	check := func(name string, got, want bool) {
		if got != want {
			t.Fatalf("%s %s = %v, reference says %v (owner %d, hops %d, %d neighbors)",
				kind, name, got, want, lv.Owner, lv.Hops(), len(lv.Neighbors()))
		}
	}
	generic, strong = rv.refCovered(true), rv.refStrongCovered()
	check("covered", c.covered(lv), generic)
	check("covered without union", c.coveredNoUnion(lv), rv.refCovered(false))
	check("strong", c.strong(lv), strong)
	for maxDist := 1; maxDist <= 2; maxDist++ {
		check("strong restricted", c.restricted(lv, maxDist), rv.refStrongCoveredRestricted(maxDist))
	}
	if strong && !generic {
		t.Fatalf("strong without generic (owner %d, hops %d)", lv.Owner, lv.Hops())
	}
	return generic, strong
}

// checkConditions checks a fresh evaluator, a reused (dirty) one and the
// stateless functions against the references on lv.
func checkConditions(t *testing.T, lv *view.Local, reused *core.Evaluator) (generic, strong bool) {
	rv := newRefView(lv)
	conditionsOf(core.NewEvaluator(lv.N())).check(t, rv, "fresh")
	conditionsOf(reused).check(t, rv, "reused")
	return stateless.check(t, rv, "stateless")
}
