//go:build linux

package distribute

import (
	"syscall"
	"time"
)

// processCPU returns the user and system CPU time the process has used, and
// whether it could be read.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
