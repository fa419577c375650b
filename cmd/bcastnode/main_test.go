package main

import (
	"strings"
	"testing"
)

// TestFlagValidationFailsFast: invalid values and mutually-exclusive flag
// combinations must abort with a descriptive error before any socket is bound
// or journal opened — a node that would misbehave must refuse to start.
func TestFlagValidationFailsFast(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the error must mention
	}{
		{"peers without udp", []string{"-peers", "n1=127.0.0.1:7001"}, "-peers"},
		{"framing with udp", []string{"-framing", "length", "-udp", ":0"}, "-framing"},
		{"retry budget without recovery", []string{"-retry-budget", "5"}, "-retry-budget"},
		{"zero timescale", []string{"-timescale", "0s"}, "-timescale"},
		{"negative timescale", []string{"-timescale", "-1ms"}, "-timescale"},
		{"negative rate", []string{"-rate", "-0.5"}, "-rate"},
		{"rate without horizon", []string{"-rate", "0.1"}, "-horizon"},
		{"horizon without rate", []string{"-horizon", "100"}, "-horizon"},
		{"nonpositive horizon", []string{"-rate", "0.1", "-horizon", "0"}, "-horizon"},
		{"hello expiry without interval", []string{"-hello-expiry", "10"}, "-hello-expiry"},
		{"hello loss without interval", []string{"-hello-loss", "0.1"}, "-hello-loss"},
		{"negative hello interval", []string{"-hello-interval", "-1"}, "-hello-interval"},
		{"infinite hello interval", []string{"-hello-interval", "Inf"}, "Interval"},
		{"nonpositive hello expiry", []string{"-hello-interval", "5", "-hello-expiry", "0"}, "-hello-expiry"},
		{"hello loss out of range", []string{"-hello-interval", "5", "-hello-loss", "1.5"}, "-hello-loss"},
		{"unwritable journal dir", []string{"-journal", "/dev/null/state"}, "-journal"},
		{"unknown protocol", []string{"-proto", "no-such-proto"}, "protocol"},
		{"unknown metric", []string{"-metric", "no-such-metric"}, "metric"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, nil, nil)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want fail-fast error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}
