package core_test

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// wideHub builds a 2d+1-vertex graph around a hub of degree exactly d, the
// shape that makes the evaluator's neighbor rows d bits wide: logical vertex
// 0 is the hub, 1..d are its spokes, and d+1..2d form a second ring (outer i
// hangs off spoke i and links to outer i+1, so 2-hop views have a fringe with
// fringe-fringe links to leave out). chords are extra links between logical
// vertices; those touching the hub are dropped. Ids are the logical numbers
// rotated by shift, so the hub's id — its MetricID priority — can fall
// anywhere among its neighbors'.
func wideHub(d, shift int, chords [][2]int) (g *graph.Graph, hub int) {
	n := 2*d + 1
	id := func(logical int) int { return (logical + shift) % n }
	var links [][2]int
	link := func(u, w int) {
		links = append(links, [2]int{id(u), id(w)})
	}
	for i := 0; i < d; i++ {
		link(0, 1+i)
		link(1+i, d+1+i)
		link(d+1+i, d+1+(i+1)%d)
	}
	for _, c := range chords {
		if c[0]%n != 0 && c[1]%n != 0 {
			link(c[0]%n, c[1]%n)
		}
	}
	// In range by construction; loops and repeated links are dropped.
	g, err := graph.FromEdges(n, dedupLinks(links))
	if err != nil {
		panic(err)
	}
	return g, id(0)
}

// markMixed marks every third listed node designated and the rest visited,
// leaving the owner alone.
func markMixed(lv *view.Local, marks []int) {
	for i, x := range marks {
		switch {
		case x == lv.Owner:
		case i%3 == 2:
			lv.MarkDesignated(x)
		default:
			lv.MarkVisited(x)
		}
	}
}

// TestEvaluatorWideNeighborhoods checks every condition against the
// references on owners whose degree sits on and around the 64-bit word
// boundaries of the neighbor rows — sizes the 15-vertex fuzz decoder never
// reaches.
func TestEvaluatorWideNeighborhoods(t *testing.T) {
	reused := core.NewEvaluator(1)
	verdicts := map[[2]bool]int{}
	for _, d := range []int{1, 2, 63, 64, 65, 128, 129} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed<<16 + int64(d)))
			n := 2*d + 1
			// From sparse (few pairs linked) to dense enough that chords
			// alone join many spoke pairs.
			chords := make([][2]int, rng.Intn(1+d*d/2))
			for i := range chords {
				chords[i] = [2]int{rng.Intn(n), rng.Intn(n)}
			}
			shift := rng.Intn(n)
			marks := make([]int, rng.Intn(6))
			for i := range marks {
				marks[i] = rng.Intn(n)
			}
			if seed == 3 {
				// Every spoke pair linked and, by id, the hub outranking the
				// whole graph: the generic condition holds through direct
				// links alone while H is empty.
				chords, shift, marks = chords[:0], n-1, nil
				for u := 1; u <= d; u++ {
					for w := u + 1; w <= d; w++ {
						chords = append(chords, [2]int{u, w})
					}
				}
			}
			g, hub := wideHub(d, shift, chords)
			for _, hops := range []int{1, 2, 3, 0} {
				for _, metric := range []view.Metric{view.MetricID, view.MetricDegree} {
					lv := view.NewLocal(g, hub, hops, view.BasePriorities(g, metric))
					if got := len(lv.Neighbors()); got != d {
						t.Fatalf("hub degree %d, want %d", got, d)
					}
					markMixed(lv, marks)
					generic, strong := checkConditions(t, lv, reused)
					if d > 2 {
						verdicts[[2]bool{generic, strong}]++
					}
				}
			}
		}
	}
	// The table must not be one-sided: wide rows that are full, wide rows
	// that are not, and generic verdicts the strong condition misses.
	for _, v := range [][2]bool{{false, false}, {true, false}, {true, true}} {
		if verdicts[v] == 0 {
			t.Errorf("no wide case with generic=%v strong=%v (saw %v)", v[0], v[1], verdicts)
		}
	}
}

// TestEvaluatorMatchesReferenceRealistic runs every owner of a 2000-node
// unit disk graph at the paper's dense setting (d = 18) with 2-hop views and
// a seeded broadcast state through one reused evaluator and the references.
func TestEvaluatorMatchesReferenceRealistic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net, err := geo.Generate(geo.Config{N: 2000, AvgDegree: 18}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := net.G
	var marks []int
	for x := 0; x < g.N(); x++ {
		if rng.Intn(12) == 0 {
			marks = append(marks, x)
		}
	}
	base := view.BasePriorities(g, view.MetricID)
	b := view.NewBuilder()
	reused := core.NewEvaluator(1)
	covered := 0
	for owner := 0; owner < g.N(); owner++ {
		lv := b.Build(g, owner, 2, base)
		markMixed(lv, marks)
		if generic, _ := checkConditions(t, lv, reused); generic {
			covered++
		}
	}
	if covered == 0 || covered == g.N() {
		t.Fatalf("one-sided sample: %d of %d owners covered", covered, g.N())
	}
}

// decodeWideHub turns a fuzzer byte stream into a wideHub of 60..140 spokes,
// a view depth and marks: byte 0 picks the degree (so mutations cross the 64-
// and 128-bit row boundaries), byte 1 the depth, bytes 2-3 the id rotation;
// then four bytes per chord up to a 0xff, then two bytes per mark.
func decodeWideHub(data []byte) (g *graph.Graph, hub, hops int, marks []int) {
	if len(data) < 4 {
		return nil, 0, 0, nil
	}
	d := 60 + int(data[0])%81
	hops = int(data[1]) % 4
	word := func(i int) int { return int(data[i])<<8 | int(data[i+1]) }
	var chords [][2]int
	i := 4
	for ; i+3 < len(data) && data[i] != 0xff; i += 4 {
		chords = append(chords, [2]int{word(i), word(i + 2)})
	}
	for i++; i+1 < len(data); i += 2 {
		marks = append(marks, word(i)%(2*d+1))
	}
	g, hub = wideHub(d, word(2)%(2*d+1), chords)
	return g, hub, hops, marks
}

// FuzzEvaluatorWideNeighborhood is FuzzEvaluatorMatchesReference on hubs of
// 60 to 140 neighbors, where the neighbor rows span one, two and three words.
func FuzzEvaluatorWideNeighborhood(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0})                                                 // d=63, bare
	f.Add([]byte{4, 2, 0, 70, 0, 1, 0, 2, 0, 3, 0, 64, 0xff, 0, 5, 0, 9})     // d=64
	f.Add([]byte{5, 0, 0, 1, 0, 1, 0, 65, 0, 64, 0, 65, 0xff, 0, 2, 0, 66})   // d=65, global
	f.Add([]byte{68, 3, 1, 0, 0, 1, 0, 128, 0, 127, 0, 129, 0xff, 0, 130, 1}) // d=128
	f.Add([]byte{69, 1, 0, 200, 0, 1, 0, 129})                                // d=129, 1 hop
	reused := core.NewEvaluator(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, hub, hops, marks := decodeWideHub(data)
		if g == nil {
			return
		}
		for _, metric := range []view.Metric{view.MetricID, view.MetricDegree} {
			lv := view.NewLocal(g, hub, hops, view.BasePriorities(g, metric))
			markMixed(lv, marks)
			checkConditions(t, lv, reused)
		}
	})
}
