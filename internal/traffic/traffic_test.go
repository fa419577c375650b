package traffic

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Validate checks the plan against the config that generated it, the oracle
// every generated plan must pass: sources in the config's network, injection
// times finite, non-decreasing and inside its horizon, and dense in-order
// session ids.
func (p *Plan) Validate(cfg Config) error {
	n, horizon := cfg.N, cfg.withDefaults().Horizon
	if len(p.Messages) == 0 {
		return fmt.Errorf("traffic: empty plan")
	}
	prev := 0.0
	for i, m := range p.Messages {
		if m.Session != i {
			return fmt.Errorf("traffic: message %d has session id %d, want dense ids in order", i, m.Session)
		}
		if m.Source < 0 || m.Source >= n {
			return fmt.Errorf("traffic: message %d source %d out of range [0,%d)", i, m.Source, n)
		}
		if m.At < 0 || math.IsNaN(m.At) || math.IsInf(m.At, 0) {
			return fmt.Errorf("traffic: message %d has invalid time %v", i, m.At)
		}
		if m.At >= horizon {
			return fmt.Errorf("traffic: message %d at %v is past the horizon %v", i, m.At, horizon)
		}
		if m.At < prev {
			return fmt.Errorf("traffic: message %d at %v before predecessor at %v", i, m.At, prev)
		}
		prev = m.At
	}
	return nil
}

func TestPoissonDeterministic(t *testing.T) {
	cfg := Config{N: 50, Rate: 0.05, Horizon: 200, Seed: 7}
	a, err := Poisson(cfg)
	if err != nil {
		t.Fatalf("poisson: %v", err)
	}
	b, err := Poisson(cfg)
	if err != nil {
		t.Fatalf("poisson: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config produced different plans")
	}
	if err := a.Validate(cfg); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	if a.Sessions() == 0 {
		t.Fatalf("plan has no sessions (rate %v over horizon %v)", cfg.Rate, cfg.Horizon)
	}
}

func TestPoissonRateSanity(t *testing.T) {
	// 8 sources at 0.1 msg/slot over 2000 slots: expect ~1600 messages.
	cfg := Config{N: 100, Sources: 8, Rate: 0.1, Horizon: 2000, Seed: 3}
	p, err := Poisson(cfg)
	if err != nil {
		t.Fatalf("poisson: %v", err)
	}
	got := float64(p.Sessions())
	want := 8 * 0.1 * 2000
	if got < 0.8*want || got > 1.2*want {
		t.Fatalf("got %v messages, want within 20%% of %v", got, want)
	}
}

func TestSourceStreamsIndependent(t *testing.T) {
	// Adding sources must not shift the arrivals of existing sources.
	narrow, err := Poisson(Config{N: 20, Sources: 20, Rate: 0.02, Horizon: 500, Seed: 9})
	if err != nil {
		t.Fatalf("poisson: %v", err)
	}
	perSource := map[int][]float64{}
	for _, m := range narrow.Messages {
		perSource[m.Source] = append(perSource[m.Source], m.At)
	}
	// Regenerate with the same seed; every source must reproduce its times.
	again, err := Poisson(Config{N: 20, Sources: 20, Rate: 0.02, Horizon: 500, Seed: 9})
	if err != nil {
		t.Fatalf("poisson: %v", err)
	}
	perSource2 := map[int][]float64{}
	for _, m := range again.Messages {
		perSource2[m.Source] = append(perSource2[m.Source], m.At)
	}
	if !reflect.DeepEqual(perSource, perSource2) {
		t.Fatalf("per-source arrival streams not reproducible")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{N: 0, Rate: 0.1, Horizon: 10},
		{N: 10, Sources: 11, Rate: 0.1, Horizon: 10},
		{N: 10, Rate: 0, Horizon: 10},
		{N: 10, Rate: math.NaN(), Horizon: 10},
		{N: 10, Rate: 0.1, Horizon: -1},
	}
	for i, cfg := range cases {
		if _, err := Poisson(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	cfg := Config{N: 5, Rate: 0.1, Horizon: 10}
	bad := []Plan{
		{Messages: nil},
		{Messages: []Message{{Session: 1, Source: 0, At: 0}}},
		{Messages: []Message{{Session: 0, Source: 9, At: 0}}},
		{Messages: []Message{{Session: 0, Source: 0, At: 5}, {Session: 1, Source: 0, At: 1}}},
		{Messages: []Message{{Session: 0, Source: 0, At: 0}, {Session: 1, Source: 0, At: 10}}},
	}
	for i, p := range bad {
		if err := p.Validate(cfg); err == nil {
			t.Errorf("case %d: plan accepted, want error", i)
		}
	}
	good := Plan{Messages: []Message{{Session: 0, Source: 1, At: 0}, {Session: 1, Source: 0, At: 2.5}}}
	if err := good.Validate(cfg); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}
