package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// The benchmark measures Linux processes: peak memory comes from /proc, and a
// spawned node is tied to this process's life through the parent-death
// signal. The file name keeps the package from building elsewhere.

// peakRSSMB returns the peak resident set size (VmHWM) of a live process;
// pid is a number or "self". It reads /proc rather than getrusage because
// ru_maxrss of a freshly exec'ed process starts at its parent's peak, so a
// small child would report the size of whoever spawned it.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS starts a new peak-memory reading for this process: the heap
// is collected and returned to the system, and the kernel's high-water mark
// is reset to what remains resident.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cannot reset the peak-memory counter:", err)
	}
}

// dieWithParent makes the kernel kill the child if this process dies without
// reaping it (a SIGKILL skips every cleanup this program could run).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
