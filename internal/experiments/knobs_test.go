package experiments

import (
	"reflect"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/sim"
)

// TestConfigFieldCounts pins how many exported fields the three
// configuration structs carry, so a new knob is a reviewed one-line diff
// here rather than a silent addition. Every field is an option tests and
// benchmarks must cover: prefer a constant or a value derived from the inputs
// before raising a count (ROADMAP.md, "Quality of design").
func TestConfigFieldCounts(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want int
	}{
		{sim.Config{}, 20},
		{LoadConfig{}, 12},
		{geo.Config{}, 5},
	} {
		typ := reflect.TypeOf(tc.cfg)
		got := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				got++
			}
		}
		if got != tc.want {
			t.Errorf("%s has %d exported fields, want %d", typ, got, tc.want)
		}
	}
}
