package view

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"adhocbcast/internal/graph"
)

func TestStatusOrdering(t *testing.T) {
	order := []Status{Invisible, Unvisited, Designated, Visited}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("status order broken: %v >= %v", order[i-1], order[i])
		}
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{Invisible, "invisible"},
		{Unvisited, "unvisited"},
		{Designated, "designated"},
		{Visited, "visited"},
		{Status(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Fatalf("Status(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestPriorityLexicographic(t *testing.T) {
	tests := []struct {
		name string
		p, q Priority
		less bool
	}{
		{
			name: "status dominates keys",
			p:    Priority{Status: Unvisited, Key1: 100, ID: 9},
			q:    Priority{Status: Visited, Key1: 0, ID: 1},
			less: true,
		},
		{
			name: "visited beats designated",
			p:    Priority{Status: Designated, ID: 5},
			q:    Priority{Status: Visited, ID: 1},
			less: true,
		},
		{
			name: "key1 dominates key2",
			p:    Priority{Status: Unvisited, Key1: 1, Key2: 50, ID: 0},
			q:    Priority{Status: Unvisited, Key1: 2, Key2: 0, ID: 0},
			less: true,
		},
		{
			name: "key2 dominates id",
			p:    Priority{Status: Unvisited, Key2: 1, ID: 9},
			q:    Priority{Status: Unvisited, Key2: 2, ID: 0},
			less: true,
		},
		{
			name: "id breaks ties",
			p:    Priority{Status: Unvisited, ID: 3},
			q:    Priority{Status: Unvisited, ID: 4},
			less: true,
		},
		{
			name: "equal tuples",
			p:    Priority{Status: Unvisited, ID: 3},
			q:    Priority{Status: Unvisited, ID: 3},
			less: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Less(tt.q); got != tt.less {
				t.Fatalf("Less = %v, want %v", got, tt.less)
			}
			if tt.less && !tt.q.Greater(tt.p) {
				t.Fatal("Greater not the inverse of Less")
			}
		})
	}
}

// TestPriorityTotalOrderQuick checks Less is a strict total order on
// priorities with distinct ids: exactly one of p<q, q<p holds.
func TestPriorityTotalOrderQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(id int) Priority {
			statuses := []Status{Invisible, Unvisited, Designated, Visited}
			return Priority{
				Status: statuses[rng.Intn(4)],
				Key1:   float64(rng.Intn(3)),
				Key2:   float64(rng.Intn(3)),
				ID:     id,
			}
		}
		var ps []Priority
		for i := 0; i < 10; i++ {
			ps = append(ps, mk(i))
		}
		for i := range ps {
			for j := range ps {
				if i == j {
					continue
				}
				a, b := ps[i].Less(ps[j]), ps[j].Less(ps[i])
				if a == b { // both or neither: not a strict total order
					return false
				}
			}
		}
		// Transitivity via sort consistency.
		sorted := append([]Priority(nil), ps...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Less(sorted[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricString(t *testing.T) {
	if MetricID.String() != "ID" || MetricDegree.String() != "Degree" || MetricNCR.String() != "NCR" {
		t.Fatal("metric names wrong")
	}
	if Metric(0).String() != "unknown" {
		t.Fatal("unknown metric name wrong")
	}
}

// triangleWithTail builds 0-1-2 triangle plus edge 2-3.
func triangleWithTail(t *testing.T) *graph.Graph {
	t.Helper()
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	return g
}

func TestNCR(t *testing.T) {
	g := triangleWithTail(t)
	// Node 0: neighbors {1,2}, pair (1,2) connected: ncr = 0.
	if got := NCR(g, 0); got != 0 {
		t.Fatalf("NCR(0) = %v, want 0", got)
	}
	// Node 2: neighbors {0,1,3}; connected pairs: (0,1) only, so 1 of 3
	// unordered pairs connected: ncr = 1 - 2/(3*2) = 2/3.
	if got := NCR(g, 2); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("NCR(2) = %v, want 2/3", got)
	}
	// Node 3: single neighbor, ncr defined as 0.
	if got := NCR(g, 3); got != 0 {
		t.Fatalf("NCR(3) = %v, want 0", got)
	}
}

func TestNCRStarAndClique(t *testing.T) {
	star := buildGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if got := NCR(star, 0); got != 1 {
		t.Fatalf("NCR(star center) = %v, want 1", got)
	}
	clique := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	for v := 0; v < 4; v++ {
		if got := NCR(clique, v); got != 0 {
			t.Fatalf("NCR(clique %d) = %v, want 0", v, got)
		}
	}
}

func TestBasePriorities(t *testing.T) {
	g := triangleWithTail(t)
	tests := []struct {
		metric Metric
		check  func(pr []Priority) bool
	}{
		{metric: MetricID, check: func(pr []Priority) bool {
			return pr[0].Key1 == 0 && pr[3].Key1 == 0
		}},
		{metric: MetricDegree, check: func(pr []Priority) bool {
			return pr[2].Key1 == 3 && pr[3].Key1 == 1
		}},
		{metric: MetricNCR, check: func(pr []Priority) bool {
			return pr[2].Key2 == 3 && pr[0].Key1 == 0
		}},
	}
	for _, tt := range tests {
		pr := BasePriorities(g, tt.metric)
		for v, p := range pr {
			if p.Status != Unvisited {
				t.Fatalf("%v: node %d status %v, want unvisited", tt.metric, v, p.Status)
			}
			if p.ID != v {
				t.Fatalf("%v: node %d has ID %d", tt.metric, v, p.ID)
			}
		}
		if !tt.check(pr) {
			t.Fatalf("%v: wrong keys: %+v", tt.metric, pr)
		}
	}
}

// TestNCRRangeQuick checks 0 <= ncr <= 1 over random graphs.
func TestNCRRangeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			ncr := NCR(g, v)
			if ncr < 0 || ncr > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}
