//go:build !linux

package main

import "syscall"

// workerProcAttr is Linux's (PR_SET_PDEATHSIG). Elsewhere a distrun killed
// uncatchably can leave its workers running: let them exit before the run is
// repeated over the same -out.
var workerProcAttr *syscall.SysProcAttr
