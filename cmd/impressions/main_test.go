package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/fsimage"
	"impressions/internal/serve"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"1024":   1024,
		"512B":   512,
		"4KB":    4096,
		"500MB":  500 << 20,
		"4.5GB":  int64(4.5 * float64(1<<30)),
		"2TB":    2 << 40,
		" 1 MB ": 1 << 20,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil {
			t.Errorf("parseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "-5MB", "0"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) should fail", bad)
		}
	}
}

func TestRunPrintDefaults(t *testing.T) {
	if err := run([]string{"-print-defaults"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("print-defaults: %v", err)
	}
}

func TestRunGenerateAndMaterialize(t *testing.T) {
	out := filepath.Join(t.TempDir(), "image")
	report := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{
		"-files", "80", "-dirs", "20", "-size", "4MB",
		"-seed", "3", "-metadata-only", "-out", out, "-report", report,
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(out)
	if err != nil || len(entries) == 0 {
		t.Errorf("expected materialized entries under %s (err=%v)", out, err)
	}
	if _, err := os.Stat(report); err != nil {
		t.Errorf("expected report file: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-size", "notasize"}, io.Discard, io.Discard); err == nil {
		t.Error("expected error for a bad size")
	}
	if err := run([]string{"-files", "10", "-tree", "mystery"}, io.Discard, io.Discard); err == nil {
		t.Error("expected error for an unknown tree shape")
	}
}

func TestRunUserSpecifiedSizeModel(t *testing.T) {
	if err := run([]string{"-files", "50", "-size-mu", "8", "-size-sigma", "1.5"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("user-specified run: %v", err)
	}
}

// TestPlanStreamWritesIdenticalPlan: `plan` always takes the
// generator-fused O(chunk) path, so it writes the same bytes with and
// without -stream (still accepted, now without effect), -spill works on its
// own, and -mem reports the build's memory use. That those bytes are the
// retained builder's is TestStreamPlanMatchesRetainedBytes, in the library.
func TestPlanStreamWritesIdenticalPlan(t *testing.T) {
	dir := t.TempDir()
	args := []string{"plan", "-files", "400", "-dirs", "80", "-seed", "9", "-shards", "3"}
	var out bytes.Buffer
	var plans [][]byte
	for name, extra := range map[string][]string{"plain": nil, "stream": {"-stream", "-mem"}, "spill": {"-spill", dir}} {
		path := filepath.Join(dir, name+".json")
		if err := run(append(args, append(extra, "-plan", path)...), &out, io.Discard); err != nil {
			t.Fatalf("plan %v: %v", extra, err)
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, doc)
	}
	if !bytes.Equal(plans[0], plans[1]) || !bytes.Equal(plans[0], plans[2]) {
		t.Error("plan wrote different bytes with -stream or -spill than without")
	}
	if !strings.Contains(out.String(), "peak heap") {
		t.Errorf("-mem did not report peak heap:\n%s", out.String())
	}
}

// TestPlanPartitionWorkerMergePipeline drives the partitioned pipeline
// through the CLI end to end: plan -partition writes fragments plus an
// index, worker -fragment executes each fragment, merge -index verifies the
// set and reproduces the digest a monolithic plan/worker/merge run prints.
func TestPlanPartitionWorkerMergePipeline(t *testing.T) {
	dir := t.TempDir()
	cfgArgs := []string{"-files", "400", "-dirs", "80", "-seed", "9"}

	// Reference digest from the monolithic pipeline.
	monoPlan := filepath.Join(dir, "mono.json")
	if err := run(append([]string{"plan"}, append(cfgArgs, "-shards", "2", "-plan", monoPlan)...), io.Discard, io.Discard); err != nil {
		t.Fatalf("monolithic plan: %v", err)
	}
	monoRoot := filepath.Join(dir, "mono-out")
	monoManifests := []string{}
	for s := 0; s < 2; s++ {
		mf := filepath.Join(dir, fmt.Sprintf("mono-manifest-%d.json", s))
		if err := run([]string{"worker", "-plan", monoPlan, "-shard", strconv.Itoa(s), "-out", monoRoot, "-manifest", mf}, io.Discard, io.Discard); err != nil {
			t.Fatalf("monolithic worker %d: %v", s, err)
		}
		monoManifests = append(monoManifests, mf)
	}
	var monoOut bytes.Buffer
	if err := run(append([]string{"merge", "-plan", monoPlan, "-print-digest"}, monoManifests...), &monoOut, io.Discard); err != nil {
		t.Fatalf("monolithic merge: %v", err)
	}
	refDigest := strings.TrimSpace(monoOut.String())

	// Partitioned pipeline: fragments next to the index, -mem reporting.
	planPath := filepath.Join(dir, "plan.json")
	var planOut bytes.Buffer
	if err := run(append([]string{"plan"}, append(cfgArgs, "-partition", "2", "-spill", dir, "-mem", "-plan", planPath)...), &planOut, io.Discard); err != nil {
		t.Fatalf("plan -partition: %v", err)
	}
	if !strings.Contains(planOut.String(), "2 fragments") {
		t.Errorf("plan -partition -mem did not report the fragment count:\n%s", planOut.String())
	}
	outRoot := filepath.Join(dir, "out")
	manifests := []string{}
	for s := 0; s < 2; s++ {
		frag := fmt.Sprintf("%s.frag%d", planPath, s)
		if _, err := os.Stat(frag); err != nil {
			t.Fatalf("fragment %d not written: %v", s, err)
		}
		mf := filepath.Join(dir, fmt.Sprintf("manifest-%d.json", s))
		if err := run([]string{"worker", "-fragment", frag, "-out", outRoot, "-manifest", mf}, io.Discard, io.Discard); err != nil {
			t.Fatalf("worker -fragment %d: %v", s, err)
		}
		manifests = append(manifests, mf)
	}
	var mergeOut bytes.Buffer
	if err := run(append([]string{"merge", "-index", planPath, "-print-digest"}, manifests...), &mergeOut, io.Discard); err != nil {
		t.Fatalf("merge -index: %v", err)
	}
	if got := strings.TrimSpace(mergeOut.String()); got != refDigest {
		t.Errorf("fragment pipeline digest %q != monolithic %q", got, refDigest)
	}

	// An index is input like any other: one whose fragment names lead out of
	// its directory must fail the merge (exit 1) at the index, before the
	// file it points at is opened, let alone quoted in a parse error.
	secret := filepath.Join(dir, "secret.txt")
	if err := os.WriteFile(secret, []byte("hunter2 is not a shard document"), 0o644); err != nil {
		t.Fatal(err)
	}
	index, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	hostileDir := filepath.Join(dir, "elsewhere", "deeper")
	if err := os.MkdirAll(hostileDir, 0o755); err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(hostileDir, "plan.json")
	rewritten := bytes.Replace(index, []byte(`"plan.json.frag0"`), []byte(`"../../secret.txt"`), 1)
	if bytes.Equal(rewritten, index) {
		t.Fatalf("the index does not name plan.json.frag0:\n%s", index)
	}
	if err := os.WriteFile(hostile, rewritten, 0o644); err != nil {
		t.Fatal(err)
	}
	var errOut bytes.Buffer
	if code := Main(append([]string{"merge", "-index", hostile, "-print-digest"}, manifests...), io.Discard, &errOut); code != 1 {
		t.Errorf("merge -index with a fragment named ../../secret.txt exited %d, want 1", code)
	}
	if msg := errOut.String(); !strings.Contains(msg, "fragment index names fragment 0") || strings.Contains(msg, "hunter2") {
		t.Errorf("merge -index with a fragment named ../../secret.txt said:\n%s", msg)
	}
}

// TestMainExitCodes is the exit-status audit: parse errors must never leave
// the process with status 0. Bad flags and usage errors exit 2, runtime
// failures exit 1, success and -h exit 0 — on every subcommand.
func TestMainExitCodes(t *testing.T) {
	stray := t.TempDir() // where the rejected commands would have written
	// The daemon a rejected fleetrun must not have tried to reach.
	daemon, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	var dialled atomic.Int32
	go func() {
		for {
			c, err := daemon.Accept()
			if err != nil {
				return
			}
			dialled.Add(1)
			c.Close()
		}
	}()
	fleetrun := func(args ...string) []string {
		return append([]string{"fleetrun", "-base", "http://" + daemon.Addr().String(), "-timeout", "2s"}, args...)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"bad flag value", []string{"-files", "notanumber"}, 2},
		{"bad size", []string{"-size", "notasize"}, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"help", []string{"-h"}, 0},
		{"subcommand help", []string{"plan", "-h"}, 0},
		{"plan missing output", []string{"plan", "-files", "10"}, 2},
		{"plan bad flag", []string{"plan", "-no-such-flag"}, 2},
		{"worker missing args", []string{"worker"}, 2},
		{"worker bad flag", []string{"worker", "-no-such-flag"}, 2},
		{"worker missing plan file", []string{"worker", "-plan", "/nonexistent/plan.json", "-shard", "0", "-out", t.TempDir(), "-manifest", filepath.Join(t.TempDir(), "m.json")}, 1},
		{"worker join+plan conflict", []string{"worker", "-join", "http://127.0.0.1:1", "-plan", "p.json", "-out", t.TempDir()}, 2},
		{"worker join+from conflict", []string{"worker", "-join", "http://127.0.0.1:1", "-from", "http://x/v1/plans/f/shards/0", "-out", t.TempDir()}, 2},
		{"worker join missing out", []string{"worker", "-join", "http://127.0.0.1:1"}, 2},
		{"worker plan+from conflict", []string{"worker", "-plan", "p.json", "-from", "http://x/v1/plans/f/shards/0", "-out", t.TempDir(), "-manifest", "m.json"}, 2},
		{"worker plan missing shard", []string{"worker", "-plan", "/nonexistent/plan.json", "-out", t.TempDir(), "-manifest", "m.json"}, 2},
		{"fleetrun bad flag", []string{"fleetrun", "-no-such-flag"}, 2},
		{"fleetrun bad size", []string{"fleetrun", "-size", "notasize"}, 2},
		{"merge missing manifests", []string{"merge", "-plan", "/nonexistent/plan.json"}, 2},
		{"merge bad flag", []string{"merge", "-no-such-flag"}, 2},
		{"distrun missing out", []string{"distrun", "-files", "10"}, 2},
		{"distrun bad flag", []string{"distrun", "-no-such-flag"}, 2},
		{"unknown content policy", []string{"-files", "50", "-dirs", "5", "-content", "txet-model", "-digest"}, 2},
		{"plan unknown content policy", []string{"plan", "-files", "10", "-content", "bogus", "-plan", filepath.Join(t.TempDir(), "p.json")}, 2},
		{"generate success", []string{"-files", "30", "-seed", "2"}, 0},
		// Parsing stops at the first positional word: what follows it used to
		// be dropped, and the command ran without it.
		{"generate stray argument", []string{"-files", "1000", filepath.Join(stray, "out"), "-digest"}, 2},
		{"generate subcommand stray argument", []string{"generate", "-files", "30", "stray"}, 2},
		{"plan stray argument", []string{"plan", "-files", "10", "-plan", filepath.Join(stray, "p.json"), "stray"}, 2},
		{"distrun stray argument", []string{"distrun", "-files", "10", "-out", filepath.Join(stray, "dist"), "stray"}, 2},
		{"fleetrun stray argument", []string{"fleetrun", "-files", "10", "stray"}, 2},
		// A flag value no run could honour is a usage error too, wherever the
		// generation flags are taken.
		{"negative size-sigma", []string{"-files", "30", "-size-sigma", "-2"}, 2},
		{"negative size-mu", []string{"-files", "30", "-size-mu", "-1"}, 2},
		{"negative -j", []string{"-files", "30", "-j", "-3"}, 2},
		{"negative -files", []string{"-files", "-5"}, 2},
		{"layout past 1", []string{"-files", "30", "-layout", "1.5"}, 2},
		{"plan negative -j", []string{"plan", "-files", "30", "-j", "-3", "-plan", filepath.Join(stray, "p.json")}, 2},
		{"plan negative -files", []string{"plan", "-files", "-5", "-plan", filepath.Join(stray, "p.json")}, 2},
		{"plan negative size-mu", []string{"plan", "-files", "30", "-size-mu", "-1", "-plan", filepath.Join(stray, "p.json")}, 2},
		{"distrun negative -j", []string{"distrun", "-files", "30", "-j", "-3", "-out", filepath.Join(stray, "dist")}, 2},
		{"distrun negative -dirs", []string{"distrun", "-files", "30", "-dirs", "-1", "-out", filepath.Join(stray, "dist")}, 2},
		{"fleetrun unknown content policy", fleetrun("-files", "30", "-content", "bogus"), 2},
		{"fleetrun unknown tree shape", fleetrun("-files", "30", "-tree", "bonsai"), 2},
		{"fleetrun negative -files", fleetrun("-content", "bogus", "-files", "-5"), 2},
		// A spec carries no layout simulation and no file-size model.
		{"fleetrun -layout", fleetrun("-files", "30", "-layout", "0.7"), 2},
		{"fleetrun -size-mu", fleetrun("-files", "30", "-size-mu", "7"), 2},
		{"fleetrun -size-sigma", fleetrun("-files", "30", "-size-sigma", "1"), 2},
		// The two shard counts of a partitioned plan must agree; a runtime
		// failure, raised before any work.
		{"plan -shards against -partition", []string{"plan", "-files", "30", "-shards", "3", "-partition", "4", "-plan", filepath.Join(stray, "p.json")}, 1},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		got := Main(c.args, &stdout, &stderr)
		if got != c.want {
			t.Errorf("%s: Main(%q) = %d, want %d (stderr: %s)", c.name, c.args, got, c.want, stderr.String())
		}
		if c.want != 0 && stderr.Len() == 0 {
			t.Errorf("%s: expected an error message on stderr", c.name)
		}
		if c.want == 2 && stdout.Len() > 0 {
			t.Errorf("%s: a usage error came after output:\n%s", c.name, stdout.String())
		}
	}
	if left, _ := os.ReadDir(stray); len(left) > 0 {
		t.Errorf("a rejected command left %s behind", left[0].Name())
	}
	if n := dialled.Load(); n > 0 {
		t.Errorf("rejected fleetrun commands connected to the daemon %d times", n)
	}
}

// TestFleetrunMatchesDigest: fleetrun declares its image with the flags the
// single-process command takes, so a daemon with no worker (its inline
// fallback executes the shards) and `impressions … -digest` print the same
// digest for the same flags.
func TestFleetrunMatchesDigest(t *testing.T) {
	srv := serve.New(serve.Options{Fleet: fleet.Options{InlineGrace: time.Millisecond}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Fleet().Loop(ctx, 5*time.Millisecond)

	digestLine := regexp.MustCompile(`(?m)^image digest: sha256:[0-9a-f]{64}$`)
	for _, flags := range [][]string{
		{"-files", "300", "-dirs", "60", "-size", "300KB", "-seed", "20090225"},
		{"-files", "200", "-seed", "7", "-size", "150KB", "-content", "text-1word", "-tree", "flat", "-special-dirs"},
	} {
		var local, remote, stderr bytes.Buffer
		if code := Main(append(flags[:len(flags):len(flags)], "-digest"), &local, &stderr); code != 0 {
			t.Fatalf("impressions %v -digest exited %d: %s", flags, code, stderr.String())
		}
		args := append([]string{"fleetrun", "-base", ts.URL, "-shards", "3", "-timeout", "2m"}, flags...)
		if code := Main(args, &remote, &stderr); code != 0 {
			t.Fatalf("impressions %v exited %d: %s\n%s", args, code, stderr.String(), remote.String())
		}
		want, got := digestLine.FindString(local.String()), digestLine.FindString(remote.String())
		if want == "" || got != want {
			t.Errorf("%v: fleetrun printed %q, -digest %q", flags, got, want)
		}
	}
}

// TestRejectsCountsPastInt32: three billion files do not fit the metadata
// columns' 32-bit indices; the command says so and exits 1 having created
// neither the output directory nor a plan file.
func TestRejectsCountsPastInt32(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-files", "3000000000", "-out", filepath.Join(dir, "image")},
		{"plan", "-files", "3000000000", "-partition", "4", "-spill", dir, "-plan", filepath.Join(dir, "plan.json")},
	} {
		var stdout, stderr bytes.Buffer
		if got := Main(args, &stdout, &stderr); got != 1 {
			t.Errorf("Main(%q) = %d, want 1 (stderr: %s)", args, got, stderr.String())
		}
		if !strings.Contains(stderr.String(), "3000000000 files") {
			t.Errorf("Main(%q): stderr does not name the count: %s", args, stderr.String())
		}
	}
	if left, _ := os.ReadDir(dir); len(left) > 0 {
		t.Errorf("the rejected commands left %s behind", left[0].Name())
	}
}

// TestGenerateRejectsFormatBeforeGenerating: a -format the run cannot honour
// is a usage error raised before any work, not after the image has been
// generated and its summary and report printed.
func TestGenerateRejectsFormatBeforeGenerating(t *testing.T) {
	for _, args := range [][]string{
		{"-files", "30", "-seed", "2", "-format", "tar"},
		{"-files", "30", "-seed", "2", "-format", "squashfs", "-digest"},
		{"-files", "30", "-seed", "2", "-format", "zip", "-out", filepath.Join(t.TempDir(), "image.zip")},
	} {
		var stdout, stderr bytes.Buffer
		if got := Main(args, &stdout, &stderr); got != 2 {
			t.Errorf("Main(%q) = %d, want 2 (stderr: %s)", args, got, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("Main(%q) printed to stdout before failing:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "-format") {
			t.Errorf("Main(%q): stderr does not name the flag: %s", args, stderr.String())
		}
	}
}

// TestHelperProcess is not a real test: it is the re-exec target that lets
// the tests below run `impressions` subcommands as genuinely separate OS
// processes. It runs Main on the arguments after "--" and exits with its
// status. Three marker commands stage faults for the distrun tests:
// "helper-sleep" wedges forever (a hung worker), "helper-await <file>...
// -- <command>" runs the command only once the files exist, so that sibling
// shards have finished before this one misbehaves, and "helper-wedge-workers
// <command>" runs a distrun whose every worker is a helper-sleep.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("IMPRESSIONS_HELPER_PROCESS") != "1" {
		t.Skip("helper process for cross-process tests")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	if len(args) > 0 {
		switch args[0] {
		case "helper-sleep":
			time.Sleep(5 * time.Minute)
			os.Exit(0)
		case "helper-await":
			deadline := time.Now().Add(2 * time.Minute)
			for args = args[1:]; args[0] != "--"; args = args[1:] {
				for {
					if _, err := os.Stat(args[0]); err == nil || time.Now().After(deadline) {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			args = args[1:]
		case "helper-wedge-workers":
			workerCommand = func(ctx context.Context, _ []string) (*exec.Cmd, error) {
				return helperCommandContext(ctx, "helper-sleep"), nil
			}
			args = args[1:]
		}
	}
	os.Exit(Main(args, os.Stdout, os.Stderr))
}

// helperCommandContext builds an exec.Cmd that re-runs this test binary as
// an impressions process with the given CLI arguments, killed when ctx ends.
func helperCommandContext(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-test.run=TestHelperProcess", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "IMPRESSIONS_HELPER_PROCESS=1")
	return cmd
}

func helperCommand(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	return helperCommandContext(context.Background(), args...)
}

var digestRe = regexp.MustCompile(`image digest: (sha256:[0-9a-f]{64})`)

func extractDigest(t *testing.T, out []byte) string {
	t.Helper()
	m := digestRe.FindSubmatch(out)
	if m == nil {
		t.Fatalf("no digest line in output:\n%s", out)
	}
	return string(m[1])
}

// TestCrossProcessDeterminism is the headline CI invariant exercised with
// real OS processes: plan → K separate worker processes → merge must yield
// an image byte-identical (digest and on-disk tree) to a single-process
// run, for K ∈ {1, 2, 4}.
func TestCrossProcessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	cfgArgs := []string{"-files", "300", "-dirs", "60", "-size", "600KB", "-seed", "4242"}

	// Single-process reference, in-process.
	singleRoot := filepath.Join(t.TempDir(), "single")
	var buf bytes.Buffer
	if err := run(append(append([]string{}, cfgArgs...), "-digest", "-out", singleRoot), &buf, io.Discard); err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	refDigest := extractDigest(t, buf.Bytes())
	refTree, err := fsimage.HashTree(singleRoot)
	if err != nil {
		t.Fatalf("HashTree: %v", err)
	}

	for _, k := range []int{1, 2, 4} {
		work := t.TempDir()
		planPath := filepath.Join(work, "plan.json")
		planArgs := append([]string{"plan"}, cfgArgs...)
		planArgs = append(planArgs, "-shards", strconv.Itoa(k), "-plan", planPath)
		if out, err := helperCommand(t, planArgs...).CombinedOutput(); err != nil {
			t.Fatalf("K=%d: plan process: %v\n%s", k, err, out)
		}

		// Launch the workers as concurrent separate processes, all
		// materializing into the shared merged root.
		mergedRoot := filepath.Join(work, "merged")
		cmds := make([]*exec.Cmd, k)
		manifests := make([]string, k)
		for s := 0; s < k; s++ {
			manifests[s] = filepath.Join(work, fmt.Sprintf("manifest-%d.json", s))
			cmds[s] = helperCommand(t, "worker", "-plan", planPath, "-shard", strconv.Itoa(s),
				"-out", mergedRoot, "-manifest", manifests[s])
			if err := cmds[s].Start(); err != nil {
				t.Fatalf("K=%d: starting worker %d: %v", k, s, err)
			}
		}
		for s, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				t.Fatalf("K=%d: worker %d failed: %v", k, s, err)
			}
		}

		mergeArgs := append([]string{"merge", "-plan", planPath, "-print-digest"}, manifests...)
		out, err := helperCommand(t, mergeArgs...).CombinedOutput()
		if err != nil {
			t.Fatalf("K=%d: merge process: %v\n%s", k, err, out)
		}
		if got := extractDigest(t, out); got != refDigest {
			t.Fatalf("K=%d: merged digest %s != single-process digest %s", k, got, refDigest)
		}
		gotTree, err := fsimage.HashTree(mergedRoot)
		if err != nil {
			t.Fatalf("HashTree(merged): %v", err)
		}
		if gotTree != refTree {
			t.Fatalf("K=%d: merged on-disk tree differs from the single-process tree", k)
		}
	}
}

// TestDistrunOrchestration runs the one-shot local orchestrator with the
// worker spawn rerouted through the helper process, and checks the result
// matches a single-process run.
func TestDistrunOrchestration(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	rerouteWorkers(t, nil)

	cfgArgs := []string{"-files", "200", "-dirs", "40", "-size", "400KB", "-seed", "99"}
	singleRoot := filepath.Join(t.TempDir(), "single")
	var buf bytes.Buffer
	if err := run(append(append([]string{}, cfgArgs...), "-digest", "-out", singleRoot), &buf, io.Discard); err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	refDigest := extractDigest(t, buf.Bytes())
	refTree, err := fsimage.HashTree(singleRoot)
	if err != nil {
		t.Fatalf("HashTree: %v", err)
	}

	out := filepath.Join(t.TempDir(), "image")
	report := filepath.Join(t.TempDir(), "report.json")
	buf.Reset()
	distArgs := append([]string{"distrun"}, cfgArgs...)
	distArgs = append(distArgs, "-shards", "3", "-out", out, "-report", report)
	if err := run(distArgs, &buf, io.Discard); err != nil {
		t.Fatalf("distrun: %v", err)
	}
	if got := extractDigest(t, buf.Bytes()); got != refDigest {
		t.Fatalf("distrun digest %s != single-process %s", got, refDigest)
	}
	gotTree, err := fsimage.HashTree(out)
	if err != nil {
		t.Fatalf("HashTree(distrun): %v", err)
	}
	if gotTree != refTree {
		t.Fatal("distrun tree differs from single-process tree")
	}
	if _, err := os.Stat(report); err != nil {
		t.Errorf("expected merged report: %v", err)
	}
}

// faultCfgArgs is the shared small config for the fault-tolerance suite.
var faultCfgArgs = []string{"-files", "120", "-dirs", "30", "-size", "200KB", "-seed", "1337"}

// refDigestAndTree produces the single-process reference digest and
// materialized tree hash for a config, in-process.
func refDigestAndTree(t *testing.T, cfgArgs []string) (string, string) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "single")
	var buf bytes.Buffer
	if err := run(append(append([]string{}, cfgArgs...), "-digest", "-out", root), &buf, io.Discard); err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	tree, err := fsimage.HashTree(root)
	if err != nil {
		t.Fatalf("HashTree: %v", err)
	}
	return extractDigest(t, buf.Bytes()), tree
}

// rerouteWorkers runs distrun's workers through the helper process for the
// test's duration. stage, when not nil, may replace the command line of a
// shard's n-th launch (counting from 1); it returns args to run the real
// worker.
func rerouteWorkers(t *testing.T, stage func(shard, call int, args []string) []string) {
	t.Helper()
	orig := workerCommand
	t.Cleanup(func() { workerCommand = orig })
	var mu sync.Mutex
	calls := map[int]int{}
	workerCommand = func(ctx context.Context, args []string) (*exec.Cmd, error) {
		if stage != nil {
			shard, _ := strconv.Atoi(args[4]) // worker -plan P -shard N ...
			mu.Lock()
			calls[shard]++
			n := calls[shard]
			mu.Unlock()
			args = stage(shard, n, args)
		}
		return helperCommandContext(ctx, args...), nil
	}
}

// distrun runs `impressions distrun` over cfgArgs with three shards and
// returns what it printed.
func distrun(t *testing.T, cfgArgs []string, work, out string, extra ...string) (stdout string, err error) {
	t.Helper()
	args := append([]string{"distrun"}, cfgArgs...)
	args = append(args, "-shards", "3", "-work", work, "-out", out)
	var buf, errBuf bytes.Buffer
	err = run(append(args, extra...), &buf, &errBuf)
	if err != nil {
		err = fmt.Errorf("%w\nstdout:\n%s\nstderr:\n%s", err, buf.String(), errBuf.String())
	}
	return buf.String(), err
}

// interruptedRun leaves work and out as a failed run does: shards 0 and 2
// complete, their manifests written and their journals sealed to the end,
// and shard 1's worker dead (-fail-after-files) with five files sealed.
func interruptedRun(t *testing.T, cfgArgs []string, work, out string, extra ...string) {
	t.Helper()
	rerouteWorkers(t, func(shard, call int, args []string) []string {
		if shard != 1 {
			return args
		}
		staged := []string{"helper-await", filepath.Join(work, "manifest-0.json"), filepath.Join(work, "manifest-2.json"), "--"}
		return append(append(staged, args...), "-fail-after-files", "5")
	})
	stdout, err := distrun(t, cfgArgs, work, out, append(extra, "-retries", "0")...)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("the staged run should fail and name shard 1, got: %v", err)
	}
	if !strings.Contains(stdout, "-shard 1 ") || !strings.Contains(stdout, "-work "+work) {
		t.Errorf("the failure should print shard 1's re-run command:\n%s", stdout)
	}
	if _, err := os.Stat(filepath.Join(work, "manifest-1.json")); !os.IsNotExist(err) {
		t.Fatalf("the killed worker left a manifest behind: %v", err)
	}
	rerouteWorkers(t, nil)
}

// requireImage checks a finished distrun against the single-process run.
func requireImage(t *testing.T, stdout, out, refDigest, refTree string) {
	t.Helper()
	if got := extractDigest(t, []byte(stdout)); got != refDigest {
		t.Errorf("digest %s != single-process %s", got, refDigest)
	}
	gotTree, err := fsimage.HashTree(out)
	if err != nil {
		t.Fatal(err)
	}
	if gotTree != refTree {
		t.Error("tree differs from the single-process run")
	}
}

var resumedRe = regexp.MustCompile(`worker: shard (\d+) resumed (\d+) files from its journal, wrote (\d+) more`)

// TestDistrunRetriesWorkerKilledMidWrite: a worker killed partway through its
// shard is retried within the run. The retry resumes after the batches the
// dead worker sealed — unless a file it sealed has since been cut short, which
// costs the journal and rewrites the shard. Either way digest AND on-disk
// tree must match the single-process run.
func TestDistrunRetriesWorkerKilledMidWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	refDigest, refTree := refDigestAndTree(t, faultCfgArgs)
	for _, truncate := range []bool{false, true} {
		t.Run(fmt.Sprintf("truncate=%t", truncate), func(t *testing.T) {
			work, out := t.TempDir(), filepath.Join(t.TempDir(), "img")
			rerouteWorkers(t, func(shard, call int, args []string) []string {
				if shard == 1 && call == 1 {
					return append(args, "-fail-after-files", "10")
				}
				if shard == 1 && truncate {
					view, err := distribute.LoadPlanShard(filepath.Join(work, "plan.json"), 1)
					if err != nil {
						t.Error(err)
						return args
					}
					for _, f := range view.Files[:10] {
						if f.Size > 1 {
							if err := os.Truncate(filepath.Join(out, view.Tree.Path(f.DirID), f.Name), f.Size/2); err != nil {
								t.Error(err)
							}
							break
						}
					}
				}
				return args
			})
			stdout, err := distrun(t, faultCfgArgs, work, out, "-retries", "1")
			if err != nil {
				t.Fatalf("distrun with one mid-write death should retry and succeed: %v", err)
			}
			requireImage(t, stdout, out, refDigest, refTree)
			m := resumedRe.FindStringSubmatch(stdout)
			if truncate && m != nil {
				t.Errorf("the retry trusted a journal over a truncated file: %s", m[0])
			}
			if !truncate && (m == nil || m[1] != "1" || m[2] != "10") {
				t.Errorf("the retry should resume shard 1 after the 10 files its first attempt sealed:\n%s", stdout)
			}
			if left, _ := filepath.Glob(filepath.Join(work, "journal-*")); len(left) > 0 {
				t.Errorf("a merged run left journals behind: %v", left)
			}
		})
	}
}

// TestDistrunKillsWedgedWorker: a worker process that hangs is killed at the
// per-shard deadline and its shard retried. (What the scheduler makes of a
// deadline, with and without retries left, is TestRunSlotsDeadline in
// internal/fleet; this is the process actually dying.)
func TestDistrunKillsWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	refDigest, refTree := refDigestAndTree(t, faultCfgArgs)
	rerouteWorkers(t, func(shard, call int, args []string) []string {
		if shard == 2 && call == 1 {
			return []string{"helper-sleep"}
		}
		return args
	})
	out := filepath.Join(t.TempDir(), "img")
	args := append([]string{"distrun"}, faultCfgArgs...)
	args = append(args, "-shards", "3", "-work", t.TempDir(), "-out", out, "-retries", "1", "-shard-timeout", "2s")
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("distrun with a timed-out worker should retry and succeed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "timed out after 2s") {
		t.Errorf("the deadline should be named as the reason for the retry:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "fleet:") {
		t.Errorf("the scheduler's events, with their random ids, belong on stderr:\n%s", stdout.String())
	}
	requireImage(t, stdout.String(), out, refDigest, refTree)
}

// childrenOf lists the live (not zombie) processes whose parent is pid.
func childrenOf(t *testing.T, pid int) []int {
	t.Helper()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var kids []int
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // gone since the glob
		}
		// pid (comm) state ppid ...; comm may hold anything but ends at the last ")".
		f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
		if ppid, _ := strconv.Atoi(f[1]); ppid == pid && f[0] != "Z" {
			kid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, kid)
		}
	}
	return kids
}

// TestDistrunKilledTakesItsWorkers: a distrun that dies without a chance to
// kill its workers (SIGKILL, the OOM killer) leaves none behind to write into
// -out and the journals under the run that replaces it.
func TestDistrunKilledTakesItsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	if runtime.GOOS != "linux" {
		t.Skip("workers die with their distrun on Linux only (PR_SET_PDEATHSIG)")
	}
	args := append([]string{"helper-wedge-workers", "distrun"}, faultCfgArgs...)
	cmd := helperCommand(t, append(args, "-shards", "3", "-work", t.TempDir(), "-out", filepath.Join(t.TempDir(), "img"))...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var workers []int
	for deadline := time.Now().Add(30 * time.Second); len(workers) < 3; time.Sleep(10 * time.Millisecond) {
		if workers = childrenOf(t, cmd.Process.Pid); time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("distrun started %d of 3 workers", len(workers))
		}
	}
	t.Cleanup(func() {
		for _, pid := range workers {
			syscall.Kill(pid, syscall.SIGKILL)
		}
	})
	cmd.Process.Kill() // distrun alone, not its process group
	cmd.Wait()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var alive []int
		for _, pid := range workers {
			data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
			if err == nil && !strings.HasPrefix(string(data[bytes.LastIndexByte(data, ')')+1:]), " Z") {
				alive = append(alive, pid)
			}
		}
		if len(alive) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers %v outlived their SIGKILLed distrun", alive)
		}
	}
}

// TestDistrunResumeAfterFailure: running a failed run's command again with
// its -work finishes it, and writes only what was not sealed: nothing for the
// shards that had completed, the rest of the one that was killed.
func TestDistrunResumeAfterFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	refDigest, refTree := refDigestAndTree(t, faultCfgArgs)
	work, out := t.TempDir(), filepath.Join(t.TempDir(), "img")
	interruptedRun(t, faultCfgArgs, work, out)

	open, err := distribute.LoadPlan(filepath.Join(work, "plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	modTime := func(i int) time.Time {
		info, err := os.Stat(filepath.Join(out, filepath.FromSlash(open.Image.FilePath(open.Image.Files[i]))))
		if err != nil {
			t.Fatal(err)
		}
		return info.ModTime()
	}
	before := map[int]time.Time{}
	for _, shard := range []int{0, 2} {
		for _, i := range open.FilesByShard[shard] {
			before[i] = modTime(i)
		}
	}

	stdout, err := distrun(t, faultCfgArgs, work, out, "-retries", "0")
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	requireImage(t, stdout, out, refDigest, refTree)
	wrote := map[string]string{}
	for _, m := range resumedRe.FindAllStringSubmatch(stdout, -1) {
		wrote[m[1]] = m[2] + "+" + m[3]
	}
	for shard, resumed := range map[int]int{0: len(open.FilesByShard[0]), 1: 5, 2: len(open.FilesByShard[2])} {
		want := fmt.Sprintf("%d+%d", resumed, len(open.FilesByShard[shard])-resumed)
		if got := wrote[strconv.Itoa(shard)]; got != want {
			t.Errorf("shard %d resumed+wrote %q files, want %q:\n%s", shard, got, want, stdout)
		}
	}
	for i, was := range before {
		if now := modTime(i); !now.Equal(was) {
			t.Errorf("file %d of a finished shard was written again (mtime %s, was %s)", i, now, was)
		}
	}
}

// resumeOverStaleWork interrupts a run of faultCfgArgs (with the first
// flags), then runs cfg to the end over the same -work: into the same -out
// (emptied first when clean is set) or into a fresh one. What the first run
// left counts only for the same plan, the same content mode and an -out that
// still holds the files, and none of these cases is one: nothing may be
// resumed, and the run must end in cfg's single-process digest and tree,
// never in a hole.
func resumeOverStaleWork(t *testing.T, first, cfg []string, sameOut, clean bool) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	refDigest, refTree := refDigestAndTree(t, cfg)
	work, out := t.TempDir(), filepath.Join(t.TempDir(), "img")
	interruptedRun(t, faultCfgArgs, work, out, first...)
	if clean {
		if err := os.RemoveAll(out); err != nil {
			t.Fatal(err)
		}
	}
	if !sameOut {
		out = filepath.Join(t.TempDir(), "other")
	}
	stdout, err := distrun(t, cfg, work, out)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if m := resumedRe.FindString(stdout); m != "" {
		t.Errorf("nothing of the first run may be resumed: %s", m)
	}
	requireImage(t, stdout, out, refDigest, refTree)
}

// TestDistrunDiscardsStaleManifests: reusing a work dir with a different
// seed must not let the old run's manifests and journals mask the fact that
// nothing was generated for the new plan.
func TestDistrunDiscardsStaleManifests(t *testing.T) {
	otherSeed := []string{"-files", "120", "-dirs", "30", "-size", "200KB", "-seed", "2026"}
	resumeOverStaleWork(t, nil, otherSeed, false, false)
}

// TestDistrunResumeVerifiesOutRoot: a journal proves a shard was written,
// not that the current -out holds it. Resuming into a different or an
// emptied out root must regenerate everything.
func TestDistrunResumeVerifiesOutRoot(t *testing.T) {
	t.Run("another -out", func(t *testing.T) { resumeOverStaleWork(t, nil, faultCfgArgs, false, false) })
	t.Run("a cleaned -out", func(t *testing.T) { resumeOverStaleWork(t, nil, faultCfgArgs, true, true) })
}

// TestDistrunResumeRejectsModeMismatch: what a -metadata-only run sealed is
// done work for a different image; resuming the same work dir and -out with
// full content must regenerate every shard.
func TestDistrunResumeRejectsModeMismatch(t *testing.T) {
	resumeOverStaleWork(t, []string{"-metadata-only"}, faultCfgArgs, true, false)
}

// TestMergePartialReportsOutstanding drives the resumable-merge CLI: an
// incomplete manifest set must name the outstanding shard and print the
// worker command to produce it; once supplied, the same invocation merges
// to the single-process digest.
func TestMergePartialReportsOutstanding(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipped in -short")
	}
	refDigest, _ := refDigestAndTree(t, faultCfgArgs)
	work := t.TempDir()
	out := filepath.Join(t.TempDir(), "img")
	planPath := filepath.Join(work, "plan.json")
	planArgs := append([]string{"plan"}, faultCfgArgs...)
	planArgs = append(planArgs, "-shards", "3", "-plan", planPath)
	if err := run(planArgs, io.Discard, io.Discard); err != nil {
		t.Fatalf("plan: %v", err)
	}
	manifest := func(s int) string { return filepath.Join(work, fmt.Sprintf("manifest-%d.json", s)) }
	for _, s := range []int{0, 2} {
		if err := run([]string{"worker", "-plan", planPath, "-shard", strconv.Itoa(s), "-out", out, "-manifest", manifest(s)}, io.Discard, io.Discard); err != nil {
			t.Fatalf("worker %d: %v", s, err)
		}
	}

	var buf bytes.Buffer
	if err := run([]string{"merge", "-plan", planPath, "-partial", "-out", out, manifest(0), manifest(2)}, &buf, io.Discard); err != nil {
		t.Fatalf("merge -partial on an incomplete set should report, not fail: %v", err)
	}
	outStr := buf.String()
	for _, want := range []string{
		"2 of 3 shards verified",
		"shard 1: missing",
		fmt.Sprintf("impressions worker -plan %s -shard 1 -out %s -manifest %s", planPath, out, manifest(1)),
		"incomplete",
	} {
		if !strings.Contains(outStr, want) {
			t.Errorf("partial report missing %q:\n%s", want, outStr)
		}
	}
	if strings.Contains(outStr, "image digest:") {
		t.Errorf("incomplete set must not produce a digest:\n%s", outStr)
	}

	// Supply the outstanding shard exactly as instructed; -partial now
	// completes the merge.
	if err := run([]string{"worker", "-plan", planPath, "-shard", "1", "-out", out, "-manifest", manifest(1)}, io.Discard, io.Discard); err != nil {
		t.Fatalf("worker 1: %v", err)
	}
	buf.Reset()
	if err := run([]string{"merge", "-plan", planPath, "-partial", "-out", out, manifest(0), manifest(1), manifest(2)}, &buf, io.Discard); err != nil {
		t.Fatalf("merge -partial on the completed set: %v", err)
	}
	if got := extractDigest(t, buf.Bytes()); got != refDigest {
		t.Errorf("merged digest %s != single-process %s", got, refDigest)
	}

	// A truncated manifest in partial mode is triage input: the shard shows
	// as outstanding instead of failing the audit.
	data, err := os.ReadFile(manifest(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest(2), data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	var errBuf bytes.Buffer
	if err := run([]string{"merge", "-plan", planPath, "-partial", "-out", out, manifest(0), manifest(1), manifest(2)}, &buf, &errBuf); err != nil {
		t.Fatalf("merge -partial with a truncated manifest: %v", err)
	}
	if !strings.Contains(buf.String(), "shard 2: missing") {
		t.Errorf("truncated manifest's shard should be outstanding:\n%s", buf.String())
	}
	if !strings.Contains(errBuf.String(), "unreadable") {
		t.Errorf("truncated manifest should be flagged on stderr:\n%s", errBuf.String())
	}
}

// TestMergePartialMetadataOnlyRerunHint: for a metadata-only run, the
// re-run command -partial prints must carry -metadata-only, or following
// the instruction would produce a manifest the next merge rejects for
// mixing run modes.
func TestMergePartialMetadataOnlyRerunHint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipped in -short")
	}
	work := t.TempDir()
	out := filepath.Join(t.TempDir(), "img")
	planPath := filepath.Join(work, "plan.json")
	planArgs := append([]string{"plan"}, faultCfgArgs...)
	planArgs = append(planArgs, "-shards", "2", "-plan", planPath)
	if err := run(planArgs, io.Discard, io.Discard); err != nil {
		t.Fatalf("plan: %v", err)
	}
	manifest0 := filepath.Join(work, "manifest-0.json")
	if err := run([]string{"worker", "-plan", planPath, "-shard", "0", "-out", out, "-manifest", manifest0, "-metadata-only"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("worker 0: %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"merge", "-plan", planPath, "-partial", "-out", out, manifest0}, &buf, io.Discard); err != nil {
		t.Fatalf("merge -partial: %v", err)
	}
	want := fmt.Sprintf("impressions worker -plan %s -shard 1 -out %s -manifest %s -metadata-only",
		planPath, out, filepath.Join(work, "manifest-1.json"))
	if !strings.Contains(buf.String(), want) {
		t.Errorf("re-run hint should carry -metadata-only:\nwant %q in:\n%s", want, buf.String())
	}
}

// TestWorkerResumeRecreatesEmptyDirectories: a journal sealed to the end
// lets a re-run skip every file, but the byte-identical-tree contract covers
// file-less directories too, which no content digest would miss: the re-run
// must put back one that has gone.
func TestWorkerResumeRecreatesEmptyDirectories(t *testing.T) {
	cfgArgs := []string{"-files", "10", "-dirs", "60", "-size", "10KB", "-seed", "5"}
	_, refTree := refDigestAndTree(t, cfgArgs)
	work, out := t.TempDir(), filepath.Join(t.TempDir(), "img")
	planPath := filepath.Join(work, "plan.json")
	if err := run(append(append([]string{"plan"}, cfgArgs...), "-shards", "2", "-plan", planPath), io.Discard, io.Discard); err != nil {
		t.Fatalf("plan: %v", err)
	}
	workers := func() string {
		var buf bytes.Buffer
		for s := 0; s < 2; s++ {
			manifest := filepath.Join(work, fmt.Sprintf("manifest-%d.json", s))
			if err := run([]string{"worker", "-plan", planPath, "-shard", strconv.Itoa(s), "-out", out, "-manifest", manifest, "-work", work}, &buf, io.Discard); err != nil {
				t.Fatalf("worker %d: %v", s, err)
			}
		}
		return buf.String()
	}
	workers()
	open, err := distribute.LoadPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}
	// With 60 dirs for 10 files most directories are empty leaves.
	removed := ""
	for id, d := range open.Image.Tree.Dirs {
		if id != 0 && d.FileCount == 0 && d.SubdirCount == 0 {
			removed = filepath.Join(out, filepath.FromSlash(open.Image.Tree.Path(id)))
			break
		}
	}
	if removed == "" {
		t.Fatal("no file-less leaf directory in this plan")
	}
	if err := os.Remove(removed); err != nil {
		t.Fatal(err)
	}
	stdout := workers()
	wrote := 0
	for _, m := range resumedRe.FindAllStringSubmatch(stdout, -1) {
		if m[3] != "0" {
			t.Errorf("the re-run wrote files again: %s", m[0])
		}
		wrote++
	}
	if wrote == 0 {
		t.Errorf("the re-run did not resume from the journals:\n%s", stdout)
	}
	if tree, err := fsimage.HashTree(out); err != nil || tree != refTree {
		t.Errorf("tree after the re-run differs from the single-process run (%v); %s was not put back", err, removed)
	}
}

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/generate/*.golden from this binary's output (only at a commit whose output is the reference)")

var (
	generatedAtRe = regexp.MustCompile(`(?m)^(  generated at: +).*$`)
	phaseTimeRe   = regexp.MustCompile(`(?m)^(    [a-z -]+: +)\d+\.\d{3}$`)
)

// TestGeneratePins pins what the single-process command prints and writes,
// for two specs (the default size model, and the benchmark's SMALL shape,
// large enough to cross a 4096-file boundary) in every output mode at -j 1
// and -j 4: stdout (the `generated at:` line and the phase times masked,
// temp paths as $T), stderr, the SHA-256 of the tar and squashfs files, the
// HashTree of the directory, and the -report JSON's spec, totals, achieved
// layout score and phase names. The golden files were written at the commit
// before runGenerate stopped retaining the image and must not change with it.
func TestGeneratePins(t *testing.T) {
	specs := []struct {
		name string
		args []string
	}{
		{"default", []string{"-files", "120", "-dirs", "30", "-size", "200KB", "-seed", "1337"}},
		{"small", []string{"-files", "5000", "-dirs", "500", "-size", "5734400", "-size-mu", "6.9", "-size-sigma", "0.5", "-seed", "20090225"}},
	}
	modes := []struct {
		name     string
		args     []string // $T is the run's temp dir
		artifact string   // what the run leaves under $T: "", "out" (a tree) or a file
	}{
		{"dryrun", nil, ""},
		{"digest", []string{"-digest"}, ""},
		{"dir", []string{"-out", "$T/out", "-digest"}, "out"},
		{"tar", []string{"-format", "tar", "-out", "$T/image.tar", "-digest"}, "image.tar"},
		{"squashfs", []string{"-format", "squashfs", "-out", "$T/image.squashfs", "-digest"}, "image.squashfs"},
		{"dir-metadata-only", []string{"-out", "$T/out", "-metadata-only", "-digest"}, "out"},
		{"layout-tar", []string{"-layout", "0.7", "-format", "tar", "-out", "$T/image.tar", "-digest"}, "image.tar"},
	}
	for _, spec := range specs {
		for _, mode := range modes {
			for _, j := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/j=%d", spec.name, mode.name, j), func(t *testing.T) {
					dir := t.TempDir()
					args := append(append([]string{}, spec.args...), "-j", strconv.Itoa(j))
					for _, a := range append(mode.args, "-report", "$T/report.json") {
						args = append(args, strings.ReplaceAll(a, "$T", dir))
					}
					var stdout, stderr bytes.Buffer
					if code := Main(args, &stdout, &stderr); code != 0 {
						t.Fatalf("Main(%q) = %d\n%s", args, code, stderr.String())
					}
					mask := func(b []byte) string {
						s := strings.ReplaceAll(string(b), dir, "$T")
						s = generatedAtRe.ReplaceAllString(s, "${1}<masked>")
						return phaseTimeRe.ReplaceAllString(s, "${1}<masked>")
					}
					var got strings.Builder
					fmt.Fprintf(&got, "--- stdout\n%s--- stderr\n%s", mask(stdout.Bytes()), mask(stderr.Bytes()))
					switch mode.artifact {
					case "":
					case "out":
						sum, err := fsimage.HashTree(filepath.Join(dir, "out"))
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&got, "--- artifact\ntree %s\n", sum)
					default:
						data, err := os.ReadFile(filepath.Join(dir, mode.artifact))
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&got, "--- artifact\n%s %d bytes sha256:%x\n", mode.artifact, len(data), sha256.Sum256(data))
					}
					var report fsimage.Report
					data, err := os.ReadFile(filepath.Join(dir, "report.json"))
					if err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(data, &report); err != nil {
						t.Fatalf("report.json: %v", err)
					}
					specJSON, err := json.Marshal(report.Spec)
					if err != nil {
						t.Fatal(err)
					}
					phases := make([]string, 0, len(report.PhaseTimes))
					for name := range report.PhaseTimes {
						phases = append(phases, name)
					}
					sort.Strings(phases)
					fmt.Fprintf(&got, "--- report\nspec %s\nactual %d files, %d dirs, %d bytes\nsum_error %v\nachieved_layout_score %v\noversamples %d\nphases %s\n",
						specJSON, report.ActualFiles, report.ActualDirs, report.ActualBytes, report.SumError,
						report.AchievedLayoutScore, report.Oversamples, strings.Join(phases, ", "))

					// One golden per spec and mode: -j must not show anywhere.
					golden := filepath.Join("testdata", "generate", spec.name+"-"+mode.name+".golden")
					if *updatePins && j == 1 {
						if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(golden)
					if err != nil {
						t.Fatal(err)
					}
					if got.String() != string(want) {
						t.Errorf("Main(%q) moved from %s:\n--- got\n%s\n--- want\n%s", args, golden, got.String(), want)
					}
				})
			}
		}
	}
}

// TestGenerateMemoryBound: once the metadata is resolved the single-process
// command holds the columns, the directory tree and a sink's window, never
// the image's file records. The sampler starts when the summary line is
// printed — from there on the run replays the metadata into the sink — and
// the peak is taken over the heap before the run; the resolver's working set,
// larger than either and no different at the parent, is `plan -mem`'s to watch.
func TestGenerateMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("memory ceilings are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("300k-file runs skipped in -short")
	}
	spec := []string{"-files", "300000", "-dirs", "3000", "-size", "344064000", "-size-mu", "6.9", "-size-sigma", "0.5", "-seed", "20090225", "-j", "2", "-metadata-only"}
	// The sampler reads HeapAlloc, garbage included: collect often enough
	// that the peak is the live heap and not the collector's pacing.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	for name, out := range map[string][]string{
		"tar": {"-format", "tar", "-out", os.DevNull},
		"dir": {"-out", filepath.Join(t.TempDir(), "out")},
	} {
		// Measured here (2 cores, Go 1.24): 6.6 to 7.5 MB on either output, of
		// which the three columns are 4.8; at the parent commit, which replayed
		// a retained image, 25.1 MB onto the tar sink and 28.8 to 29.2 MB onto
		// the directory. The cap leaves 1.7x over the one and 1.9x under the other.
		const cap = 13 << 20
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		var sampler *memSampler
		stdout := writerFunc(func(p []byte) (int, error) {
			if sampler == nil {
				sampler = startMemSampler()
			}
			return len(p), nil
		})
		var stderr bytes.Buffer
		code := Main(append(append([]string{}, spec...), out...), stdout, &stderr)
		if code != 0 || sampler == nil {
			t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
		}
		peak, _, _ := sampler.stop()
		peak += sampler.baseline - min(sampler.baseline, before.HeapAlloc)
		t.Logf("%s: replaying 300k files peaked at %.1f MB of heap (cap %d MB)", name, float64(peak)/(1<<20), cap>>20)
		if peak > cap {
			t.Errorf("%s: replaying 300k files peaked at %.1f MB of heap, cap is %d MB — something is retaining the file records",
				name, float64(peak)/(1<<20), cap>>20)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
