package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"adhocbcast/internal/graph"
)

// TestConfigValidate is the table-driven gate over every rejection path of
// Config.validate: each bad configuration must fail with an error naming the
// offending knob, and representative good configurations must pass.
func TestConfigValidate(t *testing.T) {
	g4, err := graph.FromEdges[int](4, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.FromEdges[int](2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{name: "zero value", cfg: Config{}},
		{name: "loss rate high", cfg: Config{LossRate: 1}, want: "LossRate"},
		{name: "loss rate negative", cfg: Config{LossRate: -0.01}, want: "LossRate"},
		{name: "loss rate NaN", cfg: Config{LossRate: math.NaN()}, want: "LossRate"},
		{name: "negative jitter", cfg: Config{TxJitter: -1}, want: "TxJitter"},
		{name: "negative retry budget", cfg: Config{RetryBudget: -1}, want: "RetryBudget"},
		{name: "negative NACK delay", cfg: Config{NACKDelay: -0.5}, want: "NACKDelay"},
		{name: "NaN NACK delay", cfg: Config{NACKDelay: math.NaN()}, want: "NACKDelay"},
		{name: "negative retry backoff", cfg: Config{RetryBackoff: -1}, want: "RetryBackoff"},
		{name: "view topology size mismatch", cfg: Config{Views: SharedViews{Topology: g2}}, want: "view topology"},
		{name: "view topology ok", cfg: Config{Views: SharedViews{Topology: g4}}},
		{name: "node views ok", cfg: Config{Views: PerNodeViews{Views: graphViews{g4}}}},
		{name: "fallback without incompleteness source", cfg: Config{Views: PerNodeViews{Hold: true}}, want: "no Views"},
		{name: "fallback with incompleteness source", cfg: Config{Views: PerNodeViews{Views: graphViews{g4}, Hold: true}}},
		{name: "nil per-node view", cfg: Config{Views: PerNodeViews{Views: graphViews{}}}, want: "node 0"},
		{name: "per-node view size mismatch", cfg: Config{Views: PerNodeViews{Views: graphViews{g2}}}, want: "node 0"},
	}
	// Every timing value must be finite: event times are built from them.
	for _, f := range []struct {
		name string
		set  func(*Config, float64)
	}{
		{"TransmitDelay", func(c *Config, v float64) { c.TransmitDelay = v }},
		{"BackoffWindow", func(c *Config, v float64) { c.BackoffWindow = v }},
		{"TxJitter", func(c *Config, v float64) { c.TxJitter = v }},
		{"NACKDelay", func(c *Config, v float64) { c.NACKDelay = v }},
		{"RetryBackoff", func(c *Config, v float64) { c.RetryBackoff = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			tc := cases[0] // the zero Config, valid but for the one field set below
			tc.name, tc.want = fmt.Sprintf("%s %v", f.name, v), f.name
			f.set(&tc.cfg, v)
			cases = append(cases, tc)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate(g4.N())
			if tc.want == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() accepted, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate() = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestRunRejectsNaNTransmitDelay: a NaN TransmitDelay used to pass validate,
// slip past the "<= 0 means default" test and hang the event loop on a
// calendar-queue day of int(at/NaN). The run must fail up front instead; the
// deadline turns a regression into a failure, not a stuck suite.
func TestRunRejectsNaNTransmitDelay(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(g, 0, flooder{}, Config{TransmitDelay: math.NaN()})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "TransmitDelay") {
			t.Fatalf("Run = %v, want an error naming TransmitDelay", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run with a NaN TransmitDelay did not return")
	}
}

// graphViews gives every node the view topology g, none provably incomplete.
type graphViews struct{ g *graph.Graph }

func (v graphViews) Graph(int) *graph.Graph { return v.g }
func (graphViews) Incomplete(int) bool      { return false }
