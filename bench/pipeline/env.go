package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"

	"impressions"
)

// buildDir is the one directory the benchmark leaves in a checkout: the two
// binaries, the default trace, and the scratch fallback. It is the name the
// driver already uses for build output, and .gitignore lists it.
const buildDir = ".bench_build"

// env is one invocation: where the program is built, where its outputs go,
// and the seed and scale every spec is rendered with.
type env struct {
	ctx     context.Context
	root    string // module root
	scratch string // private directory for everything the commands write
	seed    int64
	scale   float64
	out     io.Writer // the human-readable report
	yard    *yardstick
	// against is the root of the other checkout when -against names one: its
	// cmd/impressions is built too and run in turns with this checkout's.
	against string

	impressions  string
	impressionsd string
	launch       string
	old          string // the other checkout's impressions
}

// moduleRoot finds the directory `go build ./cmd/...` must run in: the root
// of the impressions module, above the benchmark's own module, wherever under
// it the harness was started.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(data, []byte("module impressions\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "impressions")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the impressions module (no go.mod with cmd/impressions above the working directory)")
		}
		dir = parent
	}
}

// newScratch makes this invocation's private output directory. Directory
// images go to tmpfs because the program, not the disk, is being measured: on
// the ext4 disk (mounted discard) this was sized on, a 30k-file tree took 6
// to 7 s against 0.4 s on tmpfs. The checkout's own build directory is used
// when it is on tmpfs already; else /dev/shm, the one place outside the
// checkout the harness writes to; else the build directory all the same.
func newScratch(root string) (string, error) {
	base := filepath.Join(root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	if !onTmpfs(base) && onTmpfs("/dev/shm") {
		if dir, err := os.MkdirTemp("/dev/shm", "impressions-bench-"); err == nil {
			return dir, nil
		}
	}
	return os.MkdirTemp(base, "impressions-bench-")
}

func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

// build compiles the two programs under test from the checkout's source, the
// launcher every command is started through from this module, and the other
// checkout's impressions when there is one.
func (e *env) build() error {
	bin := filepath.Join(e.root, buildDir, "bin")
	e.impressions = filepath.Join(bin, "impressions")
	e.impressionsd = filepath.Join(bin, "impressionsd")
	e.launch = filepath.Join(bin, "launch")
	if err := e.goBuild(e.root, bin, "./cmd/impressions", "./cmd/impressionsd"); err != nil {
		return err
	}
	if err := e.goBuild(filepath.Join(e.root, "bench", "pipeline"), bin, "./launch"); err != nil {
		return err
	}
	if e.against == "" {
		return nil
	}
	e.old = filepath.Join(bin, "against", "impressions")
	return e.goBuild(e.against, filepath.Dir(e.old), "./cmd/impressions")
}

// goBuild builds the packages of the module at root into dir. With a
// directory as -o, go build names each binary after its package.
func (e *env) goBuild(root, dir string, packages ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(e.ctx, "go", append([]string{"build", "-o", dir + string(filepath.Separator)}, packages...)...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build in %s: %w\n%s", root, err, out)
	}
	return nil
}

// cliRun is what the harness sees of one command from outside.
type cliRun struct {
	start  time.Time
	wall   float64 // s, process start to exit
	cpu    float64 // s, user+sys of the command and every descendant it waited for
	rssMiB float64 // largest ru_maxrss of the command or a waited-for descendant
	stdout string
}

// run executes one command to completion through the launcher (see
// launch/main.go for why), which reports wait4's view of it: the rusage sums
// the command and the descendants it reaped, which is what makes cpu_s and
// peak_rss_mb cover distrun's workers.
//
// The launcher leads a process group of its own, and cancelling the context
// (a signal to the harness) kills the group: the launcher, the command and
// distrun's workers, none of which may outlive the scratch directory or run
// into whatever is timed next. Should the harness itself be killed, the
// parent-death signal takes the launcher, and the launcher's takes the
// command.
func (e *env) run(bin string, args ...string) (cliRun, error) {
	result := filepath.Join(e.scratch, "launch.txt")
	cmd := exec.CommandContext(e.ctx, e.launch, append([]string{result, bin}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// The parent-death signal follows the thread that forked, not the
	// process, so this goroutine keeps its thread until the command is done.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := cliRun{start: time.Now()}
	err := cmd.Run()
	r.stdout = stdout.String()
	if err != nil {
		return r, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, lastLines(stderr.String(), 5))
	}
	data, err := os.ReadFile(result)
	if err != nil {
		return r, err
	}
	var wallNS, cpuNS, rssKiB int64
	if _, err := fmt.Sscan(string(data), &wallNS, &cpuNS, &rssKiB); err != nil {
		return r, fmt.Errorf("launcher result %q: %w", data, err)
	}
	r.wall, r.cpu, r.rssMiB = time.Duration(wallNS).Seconds(), time.Duration(cpuNS).Seconds(), float64(rssKiB)/1024
	return r, nil
}

func (e *env) cli(args ...string) (cliRun, error) { return e.run(e.impressions, args...) }

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

var digestLine = regexp.MustCompile(`(?m)^image digest: sha256:([0-9a-f]{64})$`)

func parseDigest(stdout string) (string, error) {
	m := digestLine.FindStringSubmatch(stdout)
	if m == nil {
		return "", errors.New("no `image digest:` line in the output")
	}
	return m[1], nil
}

// fidelityFloor keeps the fidelity pass at 200k files or more, where the
// largest MDCC varies by 2 % of itself across seeds; at 100k it is 3 %.
const fidelityFloor = 0.2

// fidelity generates plan_meta's spec in this process and returns the
// largest MDCC over the count-based parameters: directories by subdirectory
// count, file size by count, extension popularity, files by depth.
//
// Directories by depth is left out. Its desired curve is the generator's own
// average of five trees of the same size, so it measures one tree's luck, not
// fidelity: 0.03 to 0.21 across ten seeds at 20k directories, and still above
// files by depth (0.077 +- 0.001, the maximum of the other four) on 4 seeds
// of 10 at 60k. At a million files it is 0.03 to 0.05 and does not matter.
func fidelity(ctx context.Context, seed int64, scale float64) (float64, error) {
	res, err := impressions.GenerateContext(ctx, meta.scaled(math.Max(scale, fidelityFloor)).config(seed))
	if err != nil {
		return 0, err
	}
	a := impressions.MeasureAccuracy(res.Image, false)
	return max(a.DirsWithSubdirs, a.FileSizeByCount, a.ExtensionPopularity, a.FilesWithDepth), nil
}

// digestOf is the single-process digest of a spec, computed without writing
// anything: the reference every other way to the same image must reproduce.
func (e *env) digestOf(s spec) (string, error) {
	r, err := e.cli(s.command(e.seed, "", "-j", jobsFlag, "-digest")...)
	if err != nil {
		return "", err
	}
	return parseDigest(r.stdout)
}

// setupResult is what the timed runs are checked against.
type setupResult struct {
	seconds  []float64         // one per set-up
	refs     map[string]string // spec name -> canonical digest
	fidelity float64
}

// setups is how often an invocation sets up. The driver gates setup_s, so
// that work moved out of the timed runs shows, and a single set-up of one to
// two seconds reads anywhere within a quarter of itself; the median of three
// is what is reported.
const setups = 3

// setup builds the binaries, takes the reference digest of every spec the
// selected workloads print one for, and runs the fidelity pass, setups times
// over. Every repetition does all of the work; the last one's results are
// kept (they repeat exactly).
func (e *env) setup(ws []workload) (setupResult, error) {
	res := setupResult{}
	for i := 0; i < setups; i++ {
		start := time.Now()
		res.refs = map[string]string{}
		if err := e.build(); err != nil {
			return res, err
		}
		for _, w := range ws {
			s := w.spec.scaled(e.scale)
			if _, done := res.refs[s.name]; done || w.kind == kindPlan {
				continue
			}
			var err error
			if res.refs[s.name], err = e.digestOf(s); err != nil {
				return res, fmt.Errorf("reference digest of %s: %w", s.name, err)
			}
		}
		var err error
		if res.fidelity, err = fidelity(e.ctx, e.seed, e.scale); err != nil {
			return res, fmt.Errorf("fidelity pass: %w", err)
		}
		res.seconds = append(res.seconds, time.Since(start).Seconds())
	}
	return res, nil
}

// machine is the fingerprint a committed baseline carries.
type machine struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	OSArch    string `json:"os_arch"`
	Scratch   string `json:"scratch"`
	ScratchFS string `json:"scratch_fs"`
}

func (e *env) machine() machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Scratch: filepath.Dir(e.scratch), CPUModel: "unknown", ScratchFS: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The longest mount point that prefixes the scratch directory names its
	// file system.
	if data, err := os.ReadFile("/proc/mounts"); err == nil {
		best := ""
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && len(f[1]) > len(best) && (f[1] == "/" || e.scratch == f[1] || strings.HasPrefix(e.scratch, f[1]+"/")) {
				best, m.ScratchFS = f[1], f[2]
			}
		}
	}
	return m
}
