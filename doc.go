// Package adhocbcast is a from-scratch Go reproduction of Wu and Dai's
// "A Generic Distributed Broadcast Scheme in Ad Hoc Wireless Networks"
// (ICDCS 2003).
//
// The library implements the paper's generic broadcast framework — the
// coverage condition deciding when a node may stay silent during a network-
// wide broadcast — together with every substrate the evaluation needs: a
// unit disk graph workload generator, k-hop local views with the
// visited/designated/un-visited priority hierarchy, a collision-free
// discrete-event broadcast simulator, the nine published special-case
// protocols the paper analyzes, the new generic/hybrid algorithms it
// derives, and the statistics harness that replicates every experiment until
// its confidence interval is tight.
//
// Layout:
//
//	internal/graph       graph substrate (adjacency, BFS, k-hop views)
//	internal/geo         random unit disk graph workloads (Section 7)
//	internal/view        views, statuses and priority metrics (Sections 2, 4)
//	internal/core        coverage conditions and MAX_MIN (Sections 3, 6)
//	internal/sim         discrete-event broadcast simulator
//	internal/protocol    Algorithm 1 and all special cases (Sections 5, 6)
//	internal/stats       confidence-interval replication (Section 7)
//	internal/experiments one sweep driver behind every evaluation figure (Section 7)
//	cmd/bcastsim         run a single broadcast, optionally rendered
//	cmd/experiments      regenerate Figures 10-16 and Table 1
//	examples/...         runnable walkthroughs of the public API
//
// The benchmarks in bench_test.go regenerate one data point per paper table
// and figure; EXPERIMENTS.md records paper-versus-measured results.
package adhocbcast
