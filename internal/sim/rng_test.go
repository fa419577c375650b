package sim

import (
	"math/rand"
	"testing"
)

// TestStreamsSeededOnFirstDrawMatchEager checks that when a stream is first
// drawn from changes nothing it yields: for every order of first use of the
// five streams, interleaved draws equal those of sources seeded up front the
// way the simulator always has — backoff with the seed itself, the others
// with subSeed(seed, purpose) — and a stream never drawn from is never built.
func TestStreamsSeededOnFirstDrawMatchEager(t *testing.T) {
	const seed = 20030519
	eager := func() [numStreams]*rand.Rand {
		return [numStreams]*rand.Rand{
			streamBackoff: rand.New(rand.NewSource(seed)),
			streamJitter:  rand.New(rand.NewSource(subSeed(seed, "jitter"))),
			streamLoss:    rand.New(rand.NewSource(subSeed(seed, "loss"))),
			streamFault:   rand.New(rand.NewSource(subSeed(seed, "fault"))),
			streamMAC:     rand.New(rand.NewSource(subSeed(seed, "mac"))),
		}
	}
	orders := 0
	var permute func(order []int, rest []int)
	permute = func(order, rest []int) {
		if len(rest) > 0 {
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				permute(append(order, rest[i]), next)
			}
			return
		}
		orders++
		lazy, want := streams{seed: seed}, eager()
		// Stream order[i] joins in round i and is drawn from in every round
		// after, so first uses are ordered and later draws interleave.
		for round := range order {
			for _, k := range order[:round+1] {
				if got, w := lazy.get(k).Int63(), want[k].Int63(); got != w {
					t.Fatalf("order %v round %d: stream %d drew %d, an eagerly seeded source draws %d", order, round, k, got, w)
				}
			}
			for _, k := range order[round+1:] {
				if lazy.rngs[k] != nil {
					t.Fatalf("order %v round %d: stream %d was built before its first draw", order, round, k)
				}
			}
		}
	}
	permute(nil, []int{streamBackoff, streamJitter, streamLoss, streamFault, streamMAC})
	if orders != 120 {
		t.Fatalf("walked %d orders of first use, want 5! = 120", orders)
	}
}
