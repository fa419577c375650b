//go:build !linux

package chaos

import "os/exec"

// dieWithParent is a no-op where the kernel has no parent-death signal: a
// node outlives a test process that dies without reaping it.
func dieWithParent(*exec.Cmd) {}
