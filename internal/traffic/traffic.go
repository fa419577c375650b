// Package traffic generates the heavy-traffic broadcast workloads of the
// saturation experiments: seed-deterministic, independent per-source Poisson
// arrival processes that expand into a Plan — a time-ordered list of
// broadcast sessions, each a (source, injection time) pair tagged with a
// dense session id. The simulator replays a Plan with sim.RunTrafficWith;
// the live runtime replays one with a per-node generator behind the
// bcastnode -rate flag. The package depends only on the standard library and
// internal/stream, so both executors (and tests) can share one workload
// definition.
//
// Determinism contract: every message of a plan is a pure function of
// (Config, Seed). Each source draws from its own RNG stream derived from
// (Seed, source index), so changing the number of sources never shifts the
// arrival times of the sources that remain, and the final (time, source)
// sort breaks ties deterministically.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"adhocbcast/internal/stream"
)

// Message is one broadcast session of a workload: node Source originates a
// fresh broadcast at time At (in transmission slots).
type Message struct {
	// Session is the dense 0-based session id, assigned in (At, Source)
	// order across the whole plan.
	Session int
	// Source is the originating node.
	Source int
	// At is the injection time in transmission slots.
	At float64
}

// Plan is a deterministic multi-session workload: the messages of all
// sources merged into (At, Source) order with dense session ids.
type Plan struct {
	// Messages lists every broadcast session in injection order.
	Messages []Message
}

// Sessions returns the number of broadcast sessions in the plan.
func (p *Plan) Sessions() int { return len(p.Messages) }

// Config parameterizes the workload generators.
type Config struct {
	// N is the network size; sources are drawn from [0, N).
	N int
	// Sources is the number of distinct traffic sources (default min(8, N)).
	// The sources are a seed-deterministic sample of the vertex set.
	Sources int
	// Rate is the mean arrival rate per source in messages per slot. The
	// total offered load is Sources * Rate in expectation.
	Rate float64
	// Horizon is the generation horizon in slots: arrivals are drawn over
	// [0, Horizon) (default 400).
	Horizon float64
	// Seed drives source selection and every per-source arrival stream.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Sources == 0 {
		c.Sources = 8
		if c.N < 8 {
			c.Sources = c.N
		}
	}
	if c.Horizon == 0 {
		c.Horizon = 400
	}
	return c
}

func (c Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("traffic: non-positive N %d", c.N)
	}
	if c.Sources <= 0 || c.Sources > c.N {
		return fmt.Errorf("traffic: Sources %d outside [1,%d]", c.Sources, c.N)
	}
	if c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("traffic: non-positive Rate %v", c.Rate)
	}
	if c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("traffic: non-positive Horizon %v", c.Horizon)
	}
	return nil
}

// Poisson generates independent per-source Poisson arrival processes: each
// of cfg.Sources sources emits messages with exponential inter-arrival times
// of mean 1/Rate over [0, Horizon).
func Poisson(cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sources := pickSources(cfg)
	var msgs []Message
	for _, s := range sources {
		rng := rand.New(rand.NewSource(stream.Seed(cfg.Seed, "", s)))
		t := 0.0
		for {
			t += rng.ExpFloat64() / cfg.Rate
			if t >= cfg.Horizon {
				break
			}
			msgs = append(msgs, Message{Source: s, At: t})
		}
	}
	// Merge all sources into (At, Source) order.
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].At != msgs[j].At {
			return msgs[i].At < msgs[j].At
		}
		return msgs[i].Source < msgs[j].Source
	})
	for i := range msgs {
		msgs[i].Session = i
	}
	return &Plan{Messages: msgs}, nil
}

// pickSources returns cfg.Sources distinct node ids, a seed-deterministic
// uniform sample of [0, N).
func pickSources(cfg Config) []int {
	rng := rand.New(rand.NewSource(stream.Seed(cfg.Seed, "", -1)))
	perm := rng.Perm(cfg.N)[:cfg.Sources]
	sort.Ints(perm)
	return perm
}
