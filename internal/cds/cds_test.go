package cds

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
)

func build(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomNet(t *testing.T, seed int64, n int, d float64) *graph.Graph {
	t.Helper()
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: d}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net.G
}

func TestIsCDS(t *testing.T) {
	// Path 0-1-2-3: interior nodes form the unique minimum CDS.
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	tests := []struct {
		name string
		set  []int
		want bool
	}{
		{name: "interior", set: []int{1, 2}, want: true},
		{name: "whole graph", set: []int{0, 1, 2, 3}, want: true},
		{name: "not dominating", set: []int{1}, want: false},
		{name: "not connected", set: []int{0, 3}, want: false},
		{name: "empty", set: nil, want: false},
		{name: "out of range", set: []int{1, 9}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsCDS(g, tt.set); got != tt.want {
				t.Fatalf("IsCDS(%v) = %v, want %v", tt.set, got, tt.want)
			}
		})
	}
	if !IsCDS(build(t, 1, nil), nil) {
		t.Fatal("single-vertex graph should accept the empty set")
	}
}

func TestMarkingProcess(t *testing.T) {
	// Path: interior nodes are marked, leaves are not.
	g := build(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	got := MarkingProcess(g)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("marked = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("marked = %v, want %v", got, want)
		}
	}
	// Complete graph: nobody marked.
	k := build(t, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	if marked := MarkingProcess(k); len(marked) != 0 {
		t.Fatalf("complete graph marked %v", marked)
	}
}

func TestMarkingProcessIsCDSQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := randomNet(t, seed, 30, 6)
		if g.IsComplete() {
			return true
		}
		return IsCDS(g, MarkingProcess(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestGuhaKhullerSmall(t *testing.T) {
	// Star: the hub alone is the CDS.
	star := build(t, 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	set, err := GuhaKhuller(star)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0] != 0 {
		t.Fatalf("star CDS = %v, want [0]", set)
	}
	// Path: greedy needs the interior.
	path := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	set, err = GuhaKhuller(path)
	if err != nil {
		t.Fatal(err)
	}
	if !IsCDS(path, set) {
		t.Fatalf("path CDS %v invalid", set)
	}
}

func TestGuhaKhullerEdgeCases(t *testing.T) {
	if set, err := GuhaKhuller(build(t, 0, nil)); err != nil || set != nil {
		t.Fatalf("empty graph: %v, %v", set, err)
	}
	if set, err := GuhaKhuller(build(t, 1, nil)); err != nil || len(set) != 1 {
		t.Fatalf("single vertex: %v, %v", set, err)
	}
	disconnected := build(t, 4, [][2]int{{0, 1}, {2, 3}})
	if _, err := GuhaKhuller(disconnected); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestGuhaKhullerIsCDSQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := randomNet(t, seed, 40, 6)
		set, err := GuhaKhuller(g)
		if err != nil {
			return false
		}
		return IsCDS(g, set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestGuhaKhullerBeatsMarking(t *testing.T) {
	// The centralized greedy should produce substantially smaller sets than
	// the raw marking process on random networks (the paper's point about
	// the greedy's practical quality).
	var greedy, marking int
	for seed := int64(1); seed <= 20; seed++ {
		g := randomNet(t, seed, 60, 8)
		set, err := GuhaKhuller(g)
		if err != nil {
			t.Fatal(err)
		}
		greedy += len(set)
		marking += len(MarkingProcess(g))
	}
	if greedy >= marking {
		t.Fatalf("greedy total %d not smaller than marking total %d", greedy, marking)
	}
}

func TestReduceSubsetAndValid(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		g := randomNet(t, seed, 50, 6)
		if g.IsComplete() {
			continue
		}
		set := MarkingProcess(g)
		reduced := Reduce(g, set)
		if len(reduced) > len(set) {
			t.Fatalf("seed %d: reduction grew the set: %d -> %d", seed, len(set), len(reduced))
		}
		inSet := map[int]bool{}
		for _, v := range set {
			inSet[v] = true
		}
		for _, v := range reduced {
			if !inSet[v] {
				t.Fatalf("seed %d: reduced set contains non-member %d", seed, v)
			}
		}
		if !IsCDS(g, reduced) {
			t.Fatalf("seed %d: reduced set %v is not a CDS", seed, reduced)
		}
	}
}

func TestReduceShrinksMarkingProcess(t *testing.T) {
	// Across seeds the coverage-condition reduction must remove nodes from
	// the (pruning-free) marking set.
	var before, after int
	for seed := int64(1); seed <= 15; seed++ {
		g := randomNet(t, seed, 60, 8)
		set := MarkingProcess(g)
		before += len(set)
		after += len(Reduce(g, set))
	}
	if after >= before {
		t.Fatalf("reduction had no effect: %d -> %d", before, after)
	}
}

func TestReduceCompleteGraph(t *testing.T) {
	k := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if reduced := Reduce(k, []int{0, 1}); len(reduced) != 0 {
		t.Fatalf("complete graph reduced to %v, want empty", reduced)
	}
}

func TestReduceGuhaKhullerRarelyShrinks(t *testing.T) {
	// The greedy set is already near-minimal; the reduction must at least
	// not break it.
	g := randomNet(t, 7, 60, 8)
	set, err := GuhaKhuller(g)
	if err != nil {
		t.Fatal(err)
	}
	reduced := Reduce(g, set)
	if !IsCDS(g, reduced) {
		t.Fatalf("reduced greedy set %v invalid", reduced)
	}
}
