package experiments

import (
	"math/rand"
	"sort"
	"sync"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/sim"
)

// workloadSeed deliberately excludes the variant label so that every series
// of a figure sees the same replication workloads (common random numbers).
// Before the cache, that meant every variant of a panel regenerated the same
// (n, d, rep) network — rejection sampling and exact-link-count radius
// search included — once per variant, 4-6x per figure. The cache generates
// each workload once and shares it read-only across variants and across
// concurrently measured points.
//
// Workload generation is a pure function of the key, so cache hits, misses
// and evictions can never change experiment results — only how often a
// network is rebuilt.

// workload is one cached replication input: the generated network and the
// broadcast source drawn immediately after it from the same seeded stream
// (the exact sequence the uncached path used), and the settled verdicts runs
// over the network have computed.
type workload struct {
	net      *geo.Network
	source   int
	verdicts *verdictMemo
}

// verdictMemo holds the settled verdicts (sim.Settled) that runs over one
// workload's network handed out, one per (hops, metric, condition): the
// first run that settles a key — Figure 10's Static, say — leaves its
// verdicts here, and every later run over the network, of any variant or
// figure, adopts them (sim.Arena.Adopt) instead of deciding every node
// again, and builds no view they make unread. Verdicts are a pure function
// of their key, so adopting them never changes a result, only its cost. The
// memo costs n/8 bytes per key and goes with its cache entry.
type verdictMemo struct {
	mu   sync.Mutex
	sets []*sim.Settled // replaced, never written in place, when one is added
}

// offerVerdicts offers a's next run the verdicts runs over w's network left.
func (w workload) offerVerdicts(a *sim.Arena) {
	w.verdicts.mu.Lock()
	a.Adopt(w.verdicts.sets)
	w.verdicts.mu.Unlock()
}

// keepVerdicts leaves on w the verdicts a holds over w's network, unless w
// has verdicts of their key.
func (w workload) keepVerdicts(a *sim.Arena) {
	w.verdicts.mu.Lock()
	w.verdicts.sets = a.KeepVerdicts(w.net.G, w.verdicts.sets)
	w.verdicts.mu.Unlock()
}

// workloadKey identifies one replication workload. The seed alone determines
// the generator stream; n and d are part of the key defensively so that a
// seed collision between different configurations cannot alias entries.
type workloadKey struct {
	seed int64
	n, d int
}

// workloadCache is a bounded, concurrency-safe memo of generated workloads.
// Entries are generated at most once (concurrent requesters for the same key
// block on the entry's once and share the result), and an approximate-LRU
// batch eviction keeps the map bounded.
type workloadCache struct {
	mu      sync.Mutex
	cap     int
	tick    int64
	entries map[workloadKey]*workloadEntry
}

type workloadEntry struct {
	once sync.Once
	seen int64 // last-access stamp, guarded by the cache mutex
	w    workload
	memo verdictMemo // w's verdicts
	err  error
}

func newWorkloadCache(capacity int) *workloadCache {
	if capacity < 1 {
		capacity = 1
	}
	return &workloadCache{
		cap:     capacity,
		entries: make(map[workloadKey]*workloadEntry, capacity),
	}
}

// workloadCacheSize bounds the shared cache. A full paper-criterion panel
// keeps up to MaxRuns workloads per in-flight data point live; at ~10 KB per
// n=100 network this cap costs a few tens of MB in the worst case.
const workloadCacheSize = 4096

// workloads is the process-wide cache shared by the figure and extension
// drivers.
var workloads = newWorkloadCache(workloadCacheSize)

// get returns the workload for key, generating it at most once. The returned
// network is shared and must be treated as read-only.
func (c *workloadCache) get(key workloadKey) (workload, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= c.cap {
			c.evictLocked()
		}
		e = &workloadEntry{}
		c.entries[key] = e
	}
	c.tick++
	e.seen = c.tick
	c.mu.Unlock()

	e.once.Do(func() {
		rng := rand.New(rand.NewSource(key.seed))
		// Seed here is a diagnostic label: a generation failure names the
		// exact workload stream that produced it.
		net, err := geo.Generate(geo.Config{N: key.n, AvgDegree: float64(key.d), Seed: key.seed}, rng)
		if err != nil {
			e.err = err
			return
		}
		e.w = workload{net: net, source: rng.Intn(key.n), verdicts: &e.memo}
	})
	return e.w, e.err
}

// evictLocked drops the least recently used quarter of the entries, so the
// O(cap) scan amortizes to O(1) per insertion. In-flight holders of evicted
// entries keep their pointers; eviction only forces future regeneration.
func (c *workloadCache) evictLocked() {
	stamps := make([]int64, 0, len(c.entries))
	for _, e := range c.entries {
		stamps = append(stamps, e.seen)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	cutoff := stamps[len(stamps)/4]
	for k, e := range c.entries {
		if e.seen <= cutoff {
			delete(c.entries, k)
		}
	}
}

// len reports the current entry count (for tests).
func (c *workloadCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
