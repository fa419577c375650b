package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionFindSingletons(t *testing.T) {
	uf := NewUnionFind(4)
	for i := 0; i < 4; i++ {
		if uf.Find(i) != i {
			t.Fatalf("Find(%d) = %d in fresh structure", i, uf.Find(i))
		}
	}
	if uf.Find(0) == uf.Find(1) {
		t.Fatal("fresh singletons reported same")
	}
}

func TestUnionFindMerge(t *testing.T) {
	uf := NewUnionFind(6)
	if !uf.Union(0, 1) {
		t.Fatal("Union(0,1) reported already merged")
	}
	if uf.Union(1, 0) {
		t.Fatal("Union(1,0) reported a new merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Find(1) != uf.Find(2) {
		t.Fatal("transitive union failed")
	}
	if uf.Find(1) == uf.Find(4) {
		t.Fatal("unrelated elements reported same")
	}
}

// TestUnionFindQuick models union-find against component labels computed by
// graph BFS: the two must agree on every pair.
func TestUnionFindQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, 0.08)
		uf := NewUnionFind(n)
		for _, e := range g.Edges() {
			uf.Union(e[0], e[1])
		}
		labels, _ := g.Components()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if (uf.Find(u) == uf.Find(v)) != (labels[u] == labels[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(80)); err != nil {
		t.Fatal(err)
	}
}
