package hello

// Rounds returns the number of exchange rounds the views were built from.
func (vs *Views) Rounds() int { return vs.rounds }

// Known reports whether node v has heard of node u: u is v itself or an
// endpoint of a link v learned.
func (vs *Views) Known(v, u int) bool { return u == v || vs.graphs[v].Degree(u) > 0 }

// Receipts returns the number of hellos v successfully received from u.
func (vs *Views) Receipts(v, u int) int { return vs.recv[v][u] }
