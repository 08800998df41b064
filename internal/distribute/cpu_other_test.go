//go:build !linux

package distribute

import "time"

// processCPU reports the process's CPU time unknown off Linux.
func processCPU() (time.Duration, bool) { return 0, false }
