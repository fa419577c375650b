// Package harness holds test files only, as a test harness does: it is not a
// package that nothing imports, and its exports are not shipped code.
package harness

import (
	"testing"

	"archfixture/internal/used"
)

// Soak is exported and has no user outside this file, but it is test code.
func Soak() int { return used.New().Used() }

func TestSoak(t *testing.T) {
	if Soak() != used.New().Used() {
		t.Fatal("Soak")
	}
}
