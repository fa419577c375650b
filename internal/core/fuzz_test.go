package core_test

import (
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// decodeGraph turns a fuzzer byte stream into a small graph, an owner, a
// view depth and visited marks. Every byte stream decodes to something
// valid, so the fuzzer explores the condition evaluators freely.
func decodeGraph(data []byte) (g *graph.Graph, owner, hops int, visited []int) {
	if len(data) < 3 {
		return nil, 0, 0, nil
	}
	n := 2 + int(data[0]%14) // 2..15 vertices
	owner = int(data[1]) % n
	hops = int(data[2]) % 4 // 0..3 (0 = global)
	var links [][2]int
	i := 3
	for ; i+1 < len(data); i += 2 {
		if data[i] == 0xff {
			i++
			break
		}
		links = append(links, [2]int{int(data[i]) % n, int(data[i+1]) % n})
	}
	for ; i < len(data); i++ {
		visited = append(visited, int(data[i])%n)
	}
	// Vertices are in range by construction; loops and repeats are dropped.
	g, err := graph.FromEdges(n, dedupLinks(links))
	if err != nil {
		panic(err)
	}
	return g, owner, hops, visited
}

// FuzzCoverageConditions exercises every condition evaluator on arbitrary
// graphs and broadcast states, checking that none panics and that the
// implication hierarchy holds: strong => generic, Span => generic,
// SBA => strong, without-union => with-union.
func FuzzCoverageConditions(f *testing.F) {
	f.Add([]byte{5, 0, 2, 0, 1, 1, 2, 2, 3, 0xff, 1})
	f.Add([]byte{14, 3, 1, 0, 1, 0, 2, 0, 3, 1, 2})
	f.Add([]byte{2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, owner, hops, visited := decodeGraph(data)
		if g == nil {
			return
		}
		for _, metric := range []view.Metric{view.MetricID, view.MetricDegree} {
			lv := view.NewLocal(g, owner, hops, view.BasePriorities(g, metric))
			ownerVisited := false
			for _, x := range visited {
				if x == owner {
					ownerVisited = true
				}
				lv.MarkVisited(x)
			}
			if ownerVisited {
				continue
			}
			covered := core.Covered(lv)
			strong := core.StrongCovered(lv)
			span := core.SpanCovered(lv)
			sba := core.SBACovered(lv)
			noUnion := new(core.Evaluator).CoveredWithoutVisitedUnion(lv)
			if strong && !covered {
				t.Fatalf("strong => generic violated (owner %d)", owner)
			}
			if span && !covered {
				t.Fatalf("span => generic violated (owner %d)", owner)
			}
			if sba && !strong {
				t.Fatalf("sba => strong violated (owner %d)", owner)
			}
			if noUnion && !covered {
				t.Fatalf("no-union => with-union violated (owner %d)", owner)
			}
			for k := 1; k <= 2; k++ {
				if new(core.Evaluator).StrongCoveredRestricted(lv, k) && !strong {
					t.Fatalf("restricted(%d) => strong violated (owner %d)", k, owner)
				}
			}
		}
	})
}

// FuzzMaxMinPath checks that MAX_MIN never panics, agrees with the
// reachability predicate, and always returns structurally valid paths.
func FuzzMaxMinPath(f *testing.F) {
	f.Add([]byte{6, 0, 0, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4})
	f.Add([]byte{3, 2, 1, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, owner, hops, _ := decodeGraph(data)
		if g == nil {
			return
		}
		lv := view.NewLocal(g, owner, hops, view.BasePriorities(g, view.MetricID))
		nbrs := lv.Neighbors()
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				u, w := nbrs[i], nbrs[j]
				path, ok := core.MaxMinPath(lv, u, w)
				if ok != core.ReplacementPathExists(lv, u, w) {
					t.Fatalf("MaxMinPath ok=%v disagrees with ReplacementPathExists", ok)
				}
				if !ok {
					continue
				}
				prv := lv.Pr(lv.Owner)
				prev := u
				seen := map[int]bool{u: true, w: true}
				for _, x := range path {
					if seen[x] {
						t.Fatalf("repeated node %d in path %v", x, path)
					}
					seen[x] = true
					if !lv.Pr(x).Greater(prv) {
						t.Fatalf("low-priority intermediate %d in path %v", x, path)
					}
					if !lv.HasEdge(prev, x) {
						t.Fatalf("non-adjacent hop %d-%d in path %v", prev, x, path)
					}
					prev = x
				}
				if !lv.HasEdge(prev, w) {
					t.Fatalf("path %v does not reach %d", path, w)
				}
			}
		}
	})
}
