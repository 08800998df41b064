package main

import "syscall"

// workerProcAttr has the kernel SIGKILL a worker when the thread that
// started it exits — for a caller that holds its thread
// (runtime.LockOSThread) until cmd.Wait returns, when this process dies. It
// closes the one gap exec.CommandContext leaves: a distrun that is itself
// killed uncatchably (SIGKILL, the OOM killer) would otherwise leave workers
// truncating and writing files in -out, and appending to the shard journals,
// under the run that replaces it.
var workerProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
