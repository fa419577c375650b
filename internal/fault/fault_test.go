package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/graph"
)

// crashedCount returns the number of nodes that fail-stop under p.
func crashedCount(p *Plan) int {
	c := 0
	for v := 0; v < p.N; v++ {
		if p.Crashed(v) {
			c++
		}
	}
	return c
}

func line(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestIntervalQueries(t *testing.T) {
	p := NewEmptyPlan(3)
	p.AddNodeDown(1, Interval{From: 2, To: 5})
	p.AddNodeDown(1, Interval{From: 7, To: Forever})
	p.AddLinkDown(2, 0, Interval{From: 1, To: 3})

	cases := []struct {
		t    float64
		down bool
	}{{0, false}, {2, true}, {4.9, true}, {5, false}, {6, false}, {7, true}, {1e9, true}}
	for _, c := range cases {
		if got := p.NodeDownAt(1, c.t); got != c.down {
			t.Errorf("NodeDownAt(1, %v) = %v, want %v", c.t, got, c.down)
		}
	}
	if p.NodeDownAt(0, 3) {
		t.Error("node 0 reported down")
	}
	if !p.LinkDownAt(0, 2, 2) || !p.LinkDownAt(2, 0, 2) {
		t.Error("link down query not symmetric")
	}
	if p.LinkDownAt(0, 2, 3) {
		t.Error("link down after interval end")
	}
	if !p.Crashed(1) || p.Crashed(0) {
		t.Error("crash detection wrong")
	}
	if at, ok := p.CrashTime(1); !ok || at != 7 {
		t.Errorf("CrashTime = %v, %v", at, ok)
	}
	if crashedCount(p) != 1 {
		t.Errorf("crashed count = %d", crashedCount(p))
	}
}

func TestValidate(t *testing.T) {
	ok := NewEmptyPlan(4)
	ok.AddNodeDown(0, Interval{From: 1, To: 2})
	ok.AddNodeDown(0, Interval{From: 2, To: Forever})
	ok.AddLinkDown(1, 3, Interval{From: 0, To: 1})
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	for name, build := range map[string]func() *Plan{
		"wrong size": func() *Plan { return NewEmptyPlan(3) },
		"negative start": func() *Plan {
			p := NewEmptyPlan(4)
			p.AddNodeDown(1, Interval{From: -1, To: 2})
			return p
		},
		"inverted": func() *Plan {
			p := NewEmptyPlan(4)
			p.AddNodeDown(1, Interval{From: 3, To: 2})
			return p
		},
		"overlap": func() *Plan {
			p := NewEmptyPlan(4)
			p.AddNodeDown(1, Interval{From: 0, To: 3})
			p.AddNodeDown(1, Interval{From: 2, To: 4})
			return p
		},
		"bad link": func() *Plan {
			p := NewEmptyPlan(4)
			p.LinkDown = map[Link][]Interval{{U: 2, V: 9}: {{From: 0, To: 1}}}
			return p
		},
	} {
		if err := build().Validate(4); err == nil {
			t.Errorf("%s: invalid plan accepted", name)
		}
	}
}

func TestNewPlanDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.New(40)
	for i := 0; i < 120; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := Params{CrashFraction: 0.2, ChurnFraction: 0.1, LinkFraction: 0.15, Protect: []int{0}}
	a, err := NewPlan(g, p, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(g, p, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same inputs produced different plans")
	}
	c, err := NewPlan(g, p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(g.N()); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	if got, want := crashedCount(a), 8; got != want {
		t.Fatalf("crashed count = %d, want %d", got, want)
	}
	if a.Crashed(0) || a.NodeDownAt(0, 1) {
		t.Fatal("protected node faulted")
	}
}

func TestNewPlanRejectsBadParams(t *testing.T) {
	g := line(t, 5)
	for name, p := range map[string]Params{
		"crash>1":        {CrashFraction: 1.5},
		"negative churn": {ChurnFraction: -0.1},
		"NaN link":       {LinkFraction: math.NaN()},
		"protect range":  {Protect: []int{5}},
	} {
		if _, err := NewPlan(g, p, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReachableFrom(t *testing.T) {
	// 0-1-2-3-4: crashing node 2 cuts off 3 and 4.
	g := line(t, 5)
	p := NewEmptyPlan(5)
	p.AddNodeDown(2, Interval{From: 1, To: Forever})
	reach := p.ReachableFrom(g, 0)
	want := []bool{true, true, false, false, false}
	if !reflect.DeepEqual(reach, want) {
		t.Fatalf("reach = %v, want %v", reach, want)
	}

	// Transient churn does not affect reachability.
	q := NewEmptyPlan(5)
	q.AddNodeDown(2, Interval{From: 1, To: 4})
	for v, r := range q.ReachableFrom(g, 0) {
		if !r {
			t.Fatalf("node %d unreachable under churn-only plan", v)
		}
	}

	// A nil plan is the source component.
	var nilPlan *Plan
	for v, r := range nilPlan.ReachableFrom(g, 2) {
		if !r {
			t.Fatalf("node %d unreachable under nil plan", v)
		}
	}
}

func TestReachableSourceAlwaysCounted(t *testing.T) {
	g := line(t, 3)
	p := NewEmptyPlan(3)
	p.AddNodeDown(0, Interval{From: 0.5, To: Forever})
	reach := p.ReachableFrom(g, 0)
	if !reach[0] {
		t.Fatal("crashed source not counted reachable")
	}
}
