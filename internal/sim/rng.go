package sim

import (
	"math/rand"

	"adhocbcast/internal/stream"
)

// The per-purpose random streams of a run, by index into streams.rngs.
const (
	streamBackoff = iota // backoff-timing delays (FRB)
	streamJitter         // per-transmission forwarding jitter
	streamLoss           // per-receipt loss draws
	streamFault          // fault/recovery-layer draws (retry jitter)
	streamMAC            // contention-MAC slotted-backoff draws (CarrierSense)
	numStreams
)

// streams holds the per-purpose random streams of one run, all derived from
// Config.Seed. Splitting the single historical rng means enabling one
// stochastic model (say loss) no longer shifts the draws of another (say
// backoff): each consumer owns its sequence. The backoff stream is seeded
// with Seed directly — in runs without jitter or loss it was the only
// consumer of the old shared rng, so those runs (every paper figure) stay
// bit-identical across the split. A stream is derived and seeded when first
// drawn from: seeding a math/rand source (607 words) is more work than a
// small broadcast, and most runs draw from one stream or none.
type streams struct {
	seed int64
	rngs [numStreams]*rand.Rand
}

// get returns stream k, seeding it on first use.
func (s *streams) get(k int) *rand.Rand {
	if s.rngs[k] == nil {
		seed := s.seed
		if k != streamBackoff {
			seed = stream.Seed(seed, [...]string{streamJitter: "jitter", streamLoss: "loss", streamFault: "fault", streamMAC: "mac"}[k])
		}
		s.rngs[k] = rand.New(rand.NewSource(seed))
	}
	return s.rngs[k]
}
