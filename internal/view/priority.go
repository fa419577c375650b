// Package view implements the paper's view model (Section 2): snapshots of
// network topology plus broadcast state, node priorities with the
// visited/designated/un-visited/invisible status hierarchy, the ID / Degree /
// NCR priority metrics (Section 4.4), and per-node k-hop local views.
package view

import "adhocbcast/internal/graph"

// Status is the broadcast-state component of a node priority. Higher status
// always dominates the metric keys under the lexicographic order.
type Status int

// Status levels, ordered by priority. An invisible node (outside the local
// view) has the lowest priority; a visited node (one that has forwarded the
// packet, or is known to be about to) has the highest. Designated is the
// intermediate 1.5 level of Section 4.2 for nodes selected as forward nodes
// by a neighbor but not yet heard from.
const (
	Invisible  Status = 0
	Unvisited  Status = 10
	Designated Status = 15
	Visited    Status = 20
)

// String returns a short human-readable status name.
func (s Status) String() string {
	switch s {
	case Invisible:
		return "invisible"
	case Unvisited:
		return "unvisited"
	case Designated:
		return "designated"
	case Visited:
		return "visited"
	default:
		return "unknown"
	}
}

// Priority is the total-order priority tuple Pr(v) = (S(v), key..., id(v)).
// Comparison is lexicographic: status first, then the metric keys, then the
// node id as the final tie-breaker, so distinct nodes never compare equal.
type Priority struct {
	Status Status
	// Key1 and Key2 carry the metric values: Degree uses Key1=deg; NCR uses
	// Key1=ncr, Key2=deg; ID leaves both zero.
	Key1 float64
	Key2 float64
	// ID is the unique node identifier.
	ID int
}

// Less reports whether p is strictly lower priority than q.
func (p Priority) Less(q Priority) bool {
	switch {
	case p.Status != q.Status:
		return p.Status < q.Status
	case p.Key1 != q.Key1:
		return p.Key1 < q.Key1
	case p.Key2 != q.Key2:
		return p.Key2 < q.Key2
	default:
		return p.ID < q.ID
	}
}

// Greater reports whether p is strictly higher priority than q.
func (p Priority) Greater(q Priority) bool { return q.Less(p) }

// Metric selects the node property used as the priority key (Section 4.4).
type Metric int

// Priority metrics in increasing order of collection cost.
const (
	// MetricID uses the node id only (0-hop priority).
	MetricID Metric = iota + 1
	// MetricDegree uses the node degree, ties broken by id (1-hop priority).
	MetricDegree
	// MetricNCR uses the neighborhood connectivity ratio, ties broken by
	// degree then id (2-hop priority).
	MetricNCR
)

// String returns the metric name used in the paper's figures.
func (m Metric) String() string {
	switch m {
	case MetricID:
		return "ID"
	case MetricDegree:
		return "Degree"
	case MetricNCR:
		return "NCR"
	default:
		return "unknown"
	}
}

// BasePriorities computes the un-visited priority of every node of g under
// metric m. The same base vector is shared by all local views of a broadcast
// round; views overlay status changes on top of it.
func BasePriorities(g *graph.Graph, m Metric) []Priority { return basePriorities(nil, g, m) }

// basePriorities is BasePriorities into pr's memory when it is large enough.
func basePriorities(pr []Priority, g *graph.Graph, m Metric) []Priority {
	n := g.N()
	if cap(pr) < n {
		pr = make([]Priority, n)
	}
	pr = pr[:n]
	for v := 0; v < n; v++ {
		pr[v] = Priority{Status: Unvisited, ID: v}
		switch m {
		case MetricDegree:
			pr[v].Key1 = float64(g.Degree(v))
		case MetricNCR:
			pr[v].Key1 = NCR(g, v)
			pr[v].Key2 = float64(g.Degree(v))
		}
	}
	return pr
}

// NCR returns the neighborhood connectivity ratio of v: the fraction of
// ordered pairs of v's neighbors that are not directly connected,
//
//	ncr(v) = 1 - sum_{u in N(v)} |N(u) ∩ N(v)| / (deg(v)(deg(v)-1)).
//
// Nodes with fewer than two neighbors have no neighbor pairs; their NCR is
// defined as 0. Each |N(u) ∩ N(v)| is one merge of the two sorted adjacency
// lists (v is in neither N(v) nor, as a common neighbor, counted).
func NCR(g *graph.Graph, v int) float64 {
	deg := g.Degree(v)
	if deg < 2 {
		return 0
	}
	nv := g.Adj(v)
	connected := 0
	for _, u := range nv {
		nu := g.Adj(int(u))
		for i, j := 0, 0; i < len(nv) && j < len(nu); {
			switch {
			case nv[i] < nu[j]:
				i++
			case nv[i] > nu[j]:
				j++
			default:
				connected++
				i++
				j++
			}
		}
	}
	return 1 - float64(connected)/float64(deg*(deg-1))
}
