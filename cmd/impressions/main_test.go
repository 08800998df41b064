package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fsimage"
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
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		got := Main(c.args, io.Discard, &stderr)
		if got != c.want {
			t.Errorf("%s: Main(%q) = %d, want %d (stderr: %s)", c.name, c.args, got, c.want, stderr.String())
		}
		if c.want != 0 && stderr.Len() == 0 {
			t.Errorf("%s: expected an error message on stderr", c.name)
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
// status. A few marker commands simulate misbehaving workers for the
// fault-tolerance tests: "helper-sleep" wedges forever (a hung worker),
// "helper-fail" dies immediately, and "helper-junk <dir>" writes partial
// garbage output before dying (a worker killed mid-write).
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
		case "helper-fail":
			fmt.Fprintln(os.Stderr, "helper: simulated worker crash")
			os.Exit(1)
		case "helper-await-fail":
			// Die only after the named files exist, so sibling shards commit
			// before this one's failure tears the run down.
			deadline := time.Now().Add(2 * time.Minute)
			for _, p := range args[1:] {
				for {
					if _, err := os.Stat(p); err == nil || time.Now().After(deadline) {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			fmt.Fprintln(os.Stderr, "helper: simulated worker crash (after siblings committed)")
			os.Exit(1)
		case "helper-junk":
			if err := os.MkdirAll(args[1], 0o755); err == nil {
				os.WriteFile(filepath.Join(args[1], "junk.bin"), bytes.Repeat([]byte{0xAB}, 4096), 0o644)
			}
			fmt.Fprintln(os.Stderr, "helper: died mid-write after leaving partial output")
			os.Exit(1)
		}
	}
	os.Exit(Main(args, os.Stdout, os.Stderr))
}

// helperCommand builds an exec.Cmd that re-runs this test binary as an
// impressions process with the given CLI arguments.
func helperCommand(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=TestHelperProcess", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "IMPRESSIONS_HELPER_PROCESS=1")
	return cmd
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
	orig := workerCommand
	t.Cleanup(func() { workerCommand = orig })
	workerCommand = func(planPath string, shard int, outRoot, manifestPath string, metadataOnly bool, jobs int) (*exec.Cmd, error) {
		return helperCommand(t, workerArgs(planPath, shard, outRoot, manifestPath, metadataOnly, jobs)...), nil
	}

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

// rerouteWorkers redirects distrun's worker spawns through fn for the test's
// duration. fn receives the shard and how many times that shard has been
// launched so far (starting at 1), and the real argument list.
func rerouteWorkers(t *testing.T, fn func(shard, call int, args []string) *exec.Cmd) {
	t.Helper()
	orig := workerCommand
	t.Cleanup(func() { workerCommand = orig })
	var mu sync.Mutex
	calls := map[int]int{}
	workerCommand = func(planPath string, shard int, outRoot, manifestPath string, metadataOnly bool, jobs int) (*exec.Cmd, error) {
		mu.Lock()
		calls[shard]++
		n := calls[shard]
		mu.Unlock()
		return fn(shard, n, workerArgs(planPath, shard, outRoot, manifestPath, metadataOnly, jobs)), nil
	}
}

// realWorker builds the genuine worker subprocess for a reroute.
func realWorker(t *testing.T, args []string) *exec.Cmd {
	return helperCommand(t, args...)
}

// TestDistrunCancelsSiblingsOnFailure is the regression test for the
// baseline hang: one worker fails immediately while its siblings are wedged
// forever. distrun must kill the siblings and return promptly instead of
// draining every result — before the supervisor, this test hung for the
// full 5-minute helper sleep.
func TestDistrunCancelsSiblingsOnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd {
		if shard == 0 {
			return helperCommand(t, "helper-fail")
		}
		return helperCommand(t, "helper-sleep")
	})
	distArgs := append([]string{"distrun"}, faultCfgArgs...)
	distArgs = append(distArgs, "-shards", "3", "-retries", "0", "-out", filepath.Join(t.TempDir(), "img"))
	start := time.Now()
	err := run(distArgs, io.Discard, io.Discard)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("distrun should fail when a worker fails")
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Errorf("error should name the failing shard: %v", err)
	}
	if elapsed > 60*time.Second {
		t.Fatalf("distrun took %s to fail — wedged siblings were not killed", elapsed)
	}
}

// TestDistrunRetriesWorkerKilledMidWrite: a worker that writes partial
// garbage into its staging area and dies is retried, and none of its
// partial output may reach the final image — digest AND on-disk tree must
// match the single-process run.
func TestDistrunRetriesWorkerKilledMidWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	refDigest, refTree := refDigestAndTree(t, faultCfgArgs)
	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd {
		if shard == 1 && call == 1 {
			// args[6] is the staged -out directory; scribble into it and die.
			return helperCommand(t, "helper-junk", args[6])
		}
		return realWorker(t, args)
	})
	out := filepath.Join(t.TempDir(), "img")
	var buf bytes.Buffer
	distArgs := append([]string{"distrun"}, faultCfgArgs...)
	distArgs = append(distArgs, "-shards", "3", "-retries", "1", "-out", out)
	if err := run(distArgs, &buf, io.Discard); err != nil {
		t.Fatalf("distrun with one mid-write death should retry and succeed: %v", err)
	}
	if got := extractDigest(t, buf.Bytes()); got != refDigest {
		t.Errorf("digest %s != single-process %s", got, refDigest)
	}
	gotTree, err := fsimage.HashTree(out)
	if err != nil {
		t.Fatal(err)
	}
	if gotTree != refTree {
		t.Error("tree differs from single-process run — partial output from the killed attempt leaked")
	}
}

// TestDistrunShardTimeout: a wedged worker is killed at the per-shard
// deadline; with a retry it completes and matches the reference, without
// retries the run fails promptly with a timeout error.
func TestDistrunShardTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	refDigest, _ := refDigestAndTree(t, faultCfgArgs)
	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd {
		if shard == 2 && call == 1 {
			return helperCommand(t, "helper-sleep")
		}
		return realWorker(t, args)
	})
	out := filepath.Join(t.TempDir(), "img")
	var buf bytes.Buffer
	distArgs := append([]string{"distrun"}, faultCfgArgs...)
	distArgs = append(distArgs, "-shards", "3", "-retries", "1", "-shard-timeout", "5s", "-out", out)
	if err := run(distArgs, &buf, io.Discard); err != nil {
		t.Fatalf("distrun with a timed-out worker should retry and succeed: %v", err)
	}
	if got := extractDigest(t, buf.Bytes()); got != refDigest {
		t.Errorf("digest %s != single-process %s", got, refDigest)
	}

	// Without retries, the timeout is a prompt, descriptive failure.
	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd {
		if shard == 0 {
			return helperCommand(t, "helper-sleep")
		}
		return realWorker(t, args)
	})
	distArgs = append([]string{"distrun"}, faultCfgArgs...)
	distArgs = append(distArgs, "-shards", "3", "-retries", "0", "-shard-timeout", "2s", "-out", filepath.Join(t.TempDir(), "img2"))
	start := time.Now()
	err := run(distArgs, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("timeout failure took %s", elapsed)
	}
}

// TestDistrunResumeAfterFailure: a failed run with -work leaves verified
// manifests behind; a resumed run regenerates only the outstanding shard
// (plus any shard whose manifest was truncated while the run was down) and
// the final image is byte-identical to a single-process run. This also
// covers the stale-manifest satellite: the truncated manifest is decodable
// garbage and must be discarded, never trusted.
func TestDistrunResumeAfterFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	refDigest, refTree := refDigestAndTree(t, faultCfgArgs)
	work := t.TempDir()
	out := filepath.Join(t.TempDir(), "img")

	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd {
		if shard == 1 {
			// Fail only after shards 0 and 2 committed their manifests, so
			// the work dir is left in the classic partially-complete state.
			return helperCommand(t, "helper-await-fail",
				filepath.Join(work, "manifest-0.json"), filepath.Join(work, "manifest-2.json"))
		}
		return realWorker(t, args)
	})
	distArgs := append([]string{"distrun"}, faultCfgArgs...)
	distArgs = append(distArgs, "-shards", "3", "-retries", "0", "-work", work, "-out", out)
	var stderrBuf bytes.Buffer
	if err := run(distArgs, io.Discard, &stderrBuf); err == nil {
		t.Fatal("first run should fail")
	}
	if !strings.Contains(stderrBuf.String(), "-work") {
		t.Errorf("failure output should point at resuming via -work:\n%s", stderrBuf.String())
	}
	// Shards 0 and 2 committed manifests; shard 1 must not have.
	if _, err := os.Stat(filepath.Join(work, "manifest-1.json")); !os.IsNotExist(err) {
		t.Fatalf("failed shard left a manifest behind: %v", err)
	}

	// Truncate shard 0's manifest to simulate a corrupted work dir: the
	// resume must detect it (self-hash) and regenerate shard 0 too.
	m0 := filepath.Join(work, "manifest-0.json")
	data, err := os.ReadFile(m0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(m0, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var launched []int
	var mu sync.Mutex
	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd {
		mu.Lock()
		launched = append(launched, shard)
		mu.Unlock()
		return realWorker(t, args)
	})
	var buf bytes.Buffer
	stderrBuf.Reset()
	if err := run(distArgs, &buf, &stderrBuf); err != nil {
		t.Fatalf("resumed run: %v\nstderr:\n%s", err, stderrBuf.String())
	}
	if !strings.Contains(buf.String(), "resuming") {
		t.Errorf("resumed run should say so:\n%s", buf.String())
	}
	mu.Lock()
	ran := append([]int(nil), launched...)
	mu.Unlock()
	if len(ran) != 2 {
		t.Errorf("resume launched shards %v, want exactly the outstanding {0, 1}", ran)
	}
	for _, s := range ran {
		if s == 2 {
			t.Errorf("resume relaunched shard 2, whose manifest was verified (launched %v)", ran)
		}
	}
	if got := extractDigest(t, buf.Bytes()); got != refDigest {
		t.Errorf("resumed digest %s != single-process %s", got, refDigest)
	}
	gotTree, err := fsimage.HashTree(out)
	if err != nil {
		t.Fatal(err)
	}
	if gotTree != refTree {
		t.Error("resumed tree differs from the single-process run")
	}
}

// TestDistrunDiscardsStaleManifests: reusing a work dir with a different
// seed must not let the old run's (decodable, sealed) manifests mask the
// fact that nothing was generated for the new plan.
func TestDistrunDiscardsStaleManifests(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd { return realWorker(t, args) })
	work := t.TempDir()

	firstArgs := append([]string{"distrun"}, faultCfgArgs...)
	firstArgs = append(firstArgs, "-shards", "2", "-work", work, "-out", filepath.Join(t.TempDir(), "a"))
	if err := run(firstArgs, io.Discard, io.Discard); err != nil {
		t.Fatalf("seed run: %v", err)
	}

	otherCfg := []string{"-files", "120", "-dirs", "30", "-size", "200KB", "-seed", "2026"}
	refDigest, _ := refDigestAndTree(t, otherCfg)
	secondArgs := append([]string{"distrun"}, otherCfg...)
	secondArgs = append(secondArgs, "-shards", "2", "-work", work, "-out", filepath.Join(t.TempDir(), "b"))
	var buf, errBuf bytes.Buffer
	if err := run(secondArgs, &buf, &errBuf); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !strings.Contains(errBuf.String(), "stale") {
		t.Errorf("stale manifests should be called out:\n%s", errBuf.String())
	}
	if got := extractDigest(t, buf.Bytes()); got != refDigest {
		t.Errorf("digest after stale-manifest cleanup %s != single-process %s", got, refDigest)
	}
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

// TestDistrunResumeRejectsModeMismatch: manifests committed by a
// -metadata-only run are done work for a different image; resuming the same
// work dir with full content must regenerate every shard (and vice versa),
// never skip on the strength of the other mode's manifests.
func TestDistrunResumeRejectsModeMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd { return realWorker(t, args) })
	work := t.TempDir()
	metaArgs := append([]string{"distrun"}, faultCfgArgs...)
	metaArgs = append(metaArgs, "-shards", "2", "-metadata-only", "-work", work, "-out", filepath.Join(t.TempDir(), "meta"))
	if err := run(metaArgs, io.Discard, io.Discard); err != nil {
		t.Fatalf("metadata-only run: %v", err)
	}

	refDigest, _ := refDigestAndTree(t, faultCfgArgs)
	fullArgs := append([]string{"distrun"}, faultCfgArgs...)
	fullArgs = append(fullArgs, "-shards", "2", "-work", work, "-out", filepath.Join(t.TempDir(), "full"))
	var buf, errBuf bytes.Buffer
	if err := run(fullArgs, &buf, &errBuf); err != nil {
		t.Fatalf("full-content run over metadata-only work dir: %v\nstderr:\n%s", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "metadata-only run") {
		t.Errorf("mode mismatch should be called out:\n%s", errBuf.String())
	}
	if strings.Contains(buf.String(), "resuming") {
		t.Errorf("nothing should be resumable across content modes:\n%s", buf.String())
	}
	if got := extractDigest(t, buf.Bytes()); got != refDigest {
		t.Errorf("digest %s != single-process %s", got, refDigest)
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

// TestDistrunResumeVerifiesOutRoot: verified manifests prove a shard was
// generated, not that the current -out holds it. Resuming into a different
// (empty) out root must regenerate everything rather than report success
// over a hole in the image.
func TestDistrunResumeVerifiesOutRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	rerouteWorkers(t, func(shard, call int, args []string) *exec.Cmd { return realWorker(t, args) })
	refDigest, refTree := refDigestAndTree(t, faultCfgArgs)
	work := t.TempDir()
	outA := filepath.Join(t.TempDir(), "a")
	firstArgs := append([]string{"distrun"}, faultCfgArgs...)
	firstArgs = append(firstArgs, "-shards", "2", "-work", work, "-out", outA)
	if err := run(firstArgs, io.Discard, io.Discard); err != nil {
		t.Fatalf("first run: %v", err)
	}

	// Leave an attempt-staged manifest behind, as a hard-killed supervisor
	// would; the next run must sweep it.
	strayAttempt := filepath.Join(work, "manifest-0.json.attempt-0")
	if err := os.WriteFile(strayAttempt, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	outB := filepath.Join(t.TempDir(), "b")
	secondArgs := append([]string{"distrun"}, faultCfgArgs...)
	secondArgs = append(secondArgs, "-shards", "2", "-work", work, "-out", outB)
	var buf, errBuf bytes.Buffer
	if err := run(secondArgs, &buf, &errBuf); err != nil {
		t.Fatalf("run into a fresh out root: %v\nstderr:\n%s", err, errBuf.String())
	}
	if strings.Contains(buf.String(), "resuming") {
		t.Errorf("nothing is resumable into an empty out root:\n%s\nstderr:\n%s", buf.String(), errBuf.String())
	}
	if got := extractDigest(t, buf.Bytes()); got != refDigest {
		t.Errorf("digest %s != single-process %s", got, refDigest)
	}
	gotTree, err := fsimage.HashTree(outB)
	if err != nil {
		t.Fatal(err)
	}
	if gotTree != refTree {
		t.Error("fresh out root is incomplete — resume trusted manifests for files that are not there")
	}
	if _, err := os.Stat(strayAttempt); !os.IsNotExist(err) {
		t.Errorf("stray attempt manifest was not swept: %v", err)
	}
}

// TestVerifyShardOnDiskChecksDirectories: the resume-time stat pass must
// cover a shard's file-less directories too — the byte-identical-tree
// contract includes empty dirs, which the content digest alone would miss.
func TestVerifyShardOnDiskChecksDirectories(t *testing.T) {
	cfg := core.Config{NumFiles: 10, NumDirs: 60, FSSizeBytes: 10 * 1024, Seed: 5, Parallelism: 1}
	plan, err := distribute.BuildPlan(context.Background(), distribute.PlanRequest{Config: cfg, MaxShards: 2})
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	open, err := plan.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	out := t.TempDir()
	for s := range open.Plan.Shards {
		view, err := open.ShardView(s)
		if err != nil {
			t.Fatalf("ShardView(%d): %v", s, err)
		}
		if _, err := distribute.Execute(context.Background(), view, distribute.DirTarget(out), distribute.WorkerOptions{}); err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		if err := verifyShardOnDisk(open, s, out); err != nil {
			t.Fatalf("freshly written shard %d should verify: %v", s, err)
		}
	}
	// Find a shard directory that holds no files at all and remove it; the
	// stat pass must notice (with 60 dirs for 10 files most dirs are empty).
	for s := range open.Plan.Shards {
		for _, id := range open.Part.Shards[s] {
			if id == 0 || open.Image.Tree.Dirs[id].FileCount > 0 || open.Image.Tree.Dirs[id].SubdirCount > 0 {
				continue
			}
			p := filepath.Join(out, filepath.FromSlash(open.Image.Tree.Path(id)))
			if err := os.Remove(p); err != nil {
				t.Fatalf("removing empty dir: %v", err)
			}
			if err := verifyShardOnDisk(open, s, out); err == nil {
				t.Fatalf("shard %d verified with its empty directory %s missing", s, p)
			}
			return
		}
	}
	t.Skip("no file-less leaf directory in this plan (unexpected at 60 dirs / 10 files)")
}
