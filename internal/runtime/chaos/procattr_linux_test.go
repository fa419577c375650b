package chaos

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel SIGKILL the node if the test process dies
// without reaping it — a SIGKILLed or timed-out go test runs no cleanup, and
// would otherwise leave its bcastnode fleet running.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
