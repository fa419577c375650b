package mobility

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/geo"
)

func genNet(t *testing.T, seed int64) *geo.Network {
	t.Helper()
	net, err := geo.Generate(geo.Config{N: 50, AvgDegree: 8}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPerturbedZeroStepKeepsTopology(t *testing.T) {
	net := genNet(t, 1)
	moved := Perturbed(net, 100, 0, 2)
	if moved.G.M() != net.G.M() {
		t.Fatalf("zero-step perturbation changed links: %d vs %d", moved.G.M(), net.G.M())
	}
	for _, e := range net.G.Edges() {
		if !moved.G.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost under zero movement", e)
		}
	}
	for i := range net.Pos {
		if net.Pos[i] != moved.Pos[i] {
			t.Fatalf("position %d moved", i)
		}
	}
}

func TestPerturbedStaysInArea(t *testing.T) {
	net := genNet(t, 3)
	moved := Perturbed(net, 100, 500, 4)
	for i, p := range moved.Pos {
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("node %d escaped the area: %v", i, p)
		}
	}
}

func TestPerturbedMovesNodesAndChangesLinks(t *testing.T) {
	net := genNet(t, 5)
	moved := Perturbed(net, 100, 10, 6)
	movedCount := 0
	for i := range net.Pos {
		if net.Pos[i].Distance(moved.Pos[i]) > 1e-9 {
			movedCount++
		}
		if net.Pos[i].Distance(moved.Pos[i]) > 10+1e-9 {
			t.Fatalf("node %d moved %v > maxStep", i, net.Pos[i].Distance(moved.Pos[i]))
		}
	}
	if movedCount < 45 {
		t.Fatalf("only %d of 50 nodes moved", movedCount)
	}
	// The link structure should differ with high probability at step 10.
	same := true
	if net.G.M() != moved.G.M() {
		same = false
	} else {
		for _, e := range net.G.Edges() {
			if !moved.G.HasEdge(e[0], e[1]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("topology unchanged after significant movement")
	}
	if moved.Range != net.Range {
		t.Fatal("radio range changed")
	}
}

func TestPerturbedLinkGeometry(t *testing.T) {
	net := genNet(t, 7)
	moved := Perturbed(net, 100, 5, 8)
	for u := 0; u < len(moved.Pos); u++ {
		for v := u + 1; v < len(moved.Pos); v++ {
			d := moved.Pos[u].Distance(moved.Pos[v])
			if moved.G.HasEdge(u, v) != (d <= moved.Range) {
				t.Fatalf("link {%d,%d} inconsistent with distance %v vs range %v",
					u, v, d, moved.Range)
			}
		}
	}
}

// TestPerturbedStreamDecoupled pins the per-purpose stream discipline:
// perturbation draws come from Perturbed's own seed-derived stream, so a
// perturbation between two draws of a caller-owned rng (topology generation,
// source selection, protocol seeding) must not shift those draws, and the
// perturbation itself must be a pure function of its seed.
func TestPerturbedStreamDecoupled(t *testing.T) {
	draws := func(perturb bool) []int64 {
		rng := rand.New(rand.NewSource(17))
		net, err := geo.Generate(geo.Config{N: 50, AvgDegree: 8}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if perturb {
			Perturbed(net, 100, 5, 18)
		}
		out := make([]int64, 4)
		for i := range out {
			out[i] = rng.Int63()
		}
		return out
	}
	with, without := draws(true), draws(false)
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("draw %d shifted by an interleaved perturbation: %d vs %d",
				i, with[i], without[i])
		}
	}

	net := genNet(t, 19)
	a := Perturbed(net, 100, 5, 20)
	b := Perturbed(net, 100, 5, 20)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("same seed gave different positions at node %d", i)
		}
	}
	c := Perturbed(net, 100, 5, 21)
	same := true
	for i := range a.Pos {
		if a.Pos[i] != c.Pos[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical perturbations")
	}
}
