// Command launch runs one command and writes what wait4 says about it to a
// file: `launch result.txt program args...`.
//
// It exists because exec keeps the parent's peak RSS as the floor of the
// child's ru_maxrss: measured from the harness, /bin/true "peaks" at the
// harness's own 13 MB, which is above what `impressions -format tar` needs.
// This process peaks near 2 MB, below anything the program can do, so the
// harness starts every command through it. It imports next to nothing to
// stay that small.
package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 3 {
		os.Stderr.WriteString("usage: launch result-file program [args...]\n")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[2], os.Args[3:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	// The command must not outlive this process, which the harness kills
	// with its whole group when it is told to stop; the signal follows the
	// forking thread, so main keeps its own.
	runtime.LockOSThread()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	code := 0
	if err != nil {
		code = 1
		if cmd.ProcessState == nil {
			os.Stderr.WriteString("launch: " + err.Error() + "\n")
			os.Exit(code)
		}
	}
	// Three numbers, one a line: wall-clock ns, user+sys CPU ns of the
	// command and every descendant it waited for, peak RSS in KiB of the
	// largest of them.
	ps := cmd.ProcessState
	result := strconv.FormatInt(int64(wall), 10) + "\n" +
		strconv.FormatInt(int64(ps.UserTime()+ps.SystemTime()), 10) + "\n" +
		strconv.FormatInt(ps.SysUsage().(*syscall.Rusage).Maxrss, 10) + "\n"
	if err := os.WriteFile(os.Args[1], []byte(result), 0o644); err != nil {
		os.Stderr.WriteString("launch: " + err.Error() + "\n")
		os.Exit(1)
	}
	os.Exit(code)
}
