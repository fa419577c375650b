// Package stream is the one derivation of independent RNG stream seeds from
// a base seed. Every stochastic subsystem — the simulator's per-purpose
// streams, fault plans, hello loss, mobility perturbation, traffic sources,
// the live nodes' backoff and link streams, the chaos harness's schedules and
// the beacon-loss hash — keys its generator with Seed or Hash, so a simulator
// run, a runtime.Cluster and a bcastnode fleet given one base seed draw the
// same streams.
//
// The layout is FNV-1a 64 over LE64(base) ‖ purpose ‖ LE64(part)…, where
// LE64 is the 8-byte little-endian encoding. Changing it re-keys every
// stochastic choice in the repository.
package stream

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash returns the FNV-1a 64 hash of LE64(base) ‖ purpose ‖ LE64(part)… —
// the raw 64 bits, for callers that map it to a probability themselves. It
// is written out rather than built on hash/fnv so a call allocates nothing
// (the beacon-loss draw runs per beacon check) and so its test has an
// independent reference to compare against.
func Hash(base int64, purpose string, parts ...int) uint64 {
	h := mix(offset64, uint64(base))
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * prime64
	}
	for _, p := range parts {
		h = mix(h, uint64(p))
	}
	return h
}

// Seed maps (base, purpose, parts…) to an independent stream seed: Hash
// masked to 62 bits, so it is non-negative and survives seed+1 offsets
// without overflow.
func Seed(base int64, purpose string, parts ...int) int64 {
	return int64(Hash(base, purpose, parts...) & (1<<62 - 1))
}

// mix folds the eight little-endian bytes of x into h.
func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ x&0xff) * prime64
		x >>= 8
	}
	return h
}
