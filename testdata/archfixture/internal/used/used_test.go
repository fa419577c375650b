package used

import "testing"

// A test is not a user: Unused and T.Unused stay violations.
func TestUnused(t *testing.T) {
	if Unused(2)+New().Unused() != 2 {
		t.Fatal("Unused")
	}
}
