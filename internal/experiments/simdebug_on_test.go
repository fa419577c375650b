//go:build simdebug

package experiments

// simdebug reports whether the simulator is built with its invariant
// checks, under which a static run's Init evaluates every node's coverage
// condition again to check its settled verdict.
const simdebug = true
