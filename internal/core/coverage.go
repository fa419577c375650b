// Package core implements the paper's primary contribution: the generic
// coverage condition of Section 3 deciding when a node may take non-forward
// status, the strong coverage condition of Section 6, the restricted
// conditions used by the special-case protocols (Span, Wu-Li, SBA, LENWB),
// and the MAX_MIN maximal-replacement-path procedure of Definition 1.
//
// All conditions are evaluated against a node's local view (topology plus
// known broadcast state); by Theorem 2 this is sound even when every node
// uses a different view.
package core

import (
	"sort"

	"adhocbcast/internal/view"
)

// Covered evaluates the generic coverage condition for the view's owner v:
// v may take non-forward status iff for every pair of its neighbors u, w a
// replacement path exists connecting u and w whose intermediate nodes (if
// any) all have priority higher than Pr(v).
//
// The evaluation contracts the subgraph H induced by higher-priority nodes
// into connected components (all known visited nodes count as one component,
// since visited nodes are connected through the source under any view) and
// then requires of each neighbor pair a direct link or a shared adjacent
// component (the Evaluator settles the pairs a word of neighbors at a time).
// The pair relation is deliberately not transitively closed: a
// lower-priority neighbor may be a path endpoint but never an intermediate.
//
// Covered is the one-shot form: it builds an Evaluator's scratch per call.
// Callers that evaluate many views keep one Evaluator and use its method.
func Covered(lv *view.Local) bool { return new(Evaluator).Covered(lv) }

// StrongCovered evaluates the strong coverage condition: v may take
// non-forward status iff some single connected component of the
// higher-priority subgraph H dominates N(v) (every neighbor is in the
// component or adjacent to it). It implies the generic condition and is the
// paper's cheaper O(D^2) check, used by Rule-k and LENWB style protocols;
// here it runs on the same kernel as the generic one (see Evaluator). Like
// Covered, this is the one-shot form of the Evaluator method.
func StrongCovered(lv *view.Local) bool { return new(Evaluator).StrongCovered(lv) }

// sortDedup sorts a in place and removes duplicates.
func sortDedup(a *[]int) {
	s := *a
	sort.Ints(s)
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	*a = out
}

func intersectSorted(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
