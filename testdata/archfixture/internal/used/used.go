// Package used plants the declaration rule's cases.
package used

// Speaker is an interface the module declares.
type Speaker interface{ Speak() string }

// T carries a used method, an unused one, and one used only through Speaker.
type T struct{}

// New is called by cmd/app.
func New() T { return T{} }

// Used is called by cmd/app.
func (T) Used() int { return 1 }

// Unused has no non-test caller: a planted violation.
func (T) Unused() int { return 2 }

// Speak is called only through Speaker, so it counts as used.
func (T) Speak() string { return "t" }

// Unused calls only itself, and only a test calls it: a planted violation.
func Unused(n int) int {
	if n > 0 {
		return Unused(n - 1)
	}
	return n
}

// Oracle has no caller, but the allowlist names it.
func Oracle() int { return 3 }
