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
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
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
		"1.5":    1,
		"1e18":   1_000_000_000_000_000_000,
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
	for _, bad := range []string{"", "abc", "-5MB", "0", "0.4", "0.5B", "nan", "inf", "-inf", "1e30", "8192PB", "9.3e18"} {
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
// generator-fused O(chunk) path, so it writes the same index and fragments
// with and without -stream (still accepted, now without effect), with
// -partition (a synonym of -shards) and with -spill, and -mem reports the
// build's memory use.
func TestPlanStreamWritesIdenticalPlan(t *testing.T) {
	dir := t.TempDir()
	args := []string{"plan", "-files", "400", "-dirs", "80", "-seed", "9", "-shards", "3"}
	var out bytes.Buffer
	var plans [][]byte
	for name, extra := range map[string][]string{"plain": nil, "stream": {"-stream", "-mem"}, "partition": {"-partition", "3"}, "spill": {"-spill", dir}} {
		path := filepath.Join(dir, name, "plan.json")
		if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := run(append(args, append(extra, "-plan", path)...), &out, io.Discard); err != nil {
			t.Fatalf("plan %v: %v", extra, err)
		}
		var files []byte
		for _, f := range []string{path, path + ".frag0", path + ".frag1", path + ".frag2"} {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			files = append(append(files, data...), 0)
		}
		plans = append(plans, files)
	}
	if !bytes.Equal(plans[0], plans[1]) || !bytes.Equal(plans[0], plans[2]) || !bytes.Equal(plans[0], plans[3]) {
		t.Error("plan wrote different bytes with -stream, -partition or -spill than without")
	}
	if !strings.Contains(out.String(), "peak heap") {
		t.Errorf("-mem did not report peak heap:\n%s", out.String())
	}
}

// TestPlanWarnsOfAMissedSize: a plan whose requested size the resolver
// cannot meet says so in one stderr line, requested against produced, and
// still exits 0; one that meets its size, or requests none, says nothing.
func TestPlanWarnsOfAMissedSize(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-files", "3000", "-dirs", "300", "-size", "80MB", "-seed", "7"},
			"impressions: warning: requested size 83886080 bytes not met: produced 811288235 bytes, error 867.13% (beta 0.05)\n"},
		{[]string{"-files", "3000", "-dirs", "300", "-size", "3440640", "-size-mu", "6.9", "-size-sigma", "0.5", "-seed", "7"}, ""},
		{[]string{"-files", "3000", "-dirs", "300", "-seed", "7"}, ""},
	} {
		var stdout, stderr bytes.Buffer
		args := append(append([]string{"plan"}, c.args...), "-plan", filepath.Join(t.TempDir(), "plan.json"))
		if code := Main(args, &stdout, &stderr); code != 0 {
			t.Fatalf("Main(%q) = %d\n%s", args, code, stderr.String())
		}
		if stderr.String() != c.want {
			t.Errorf("%q printed on stderr\n%q\nwant\n%q", args, stderr.String(), c.want)
		}
	}
}

// TestFailedPlanLeavesNothing: a plan build that fails removes what it
// created — the fragments opened before one could not be — so no torn
// document is left for a worker to find, and one that fails in the metadata
// pass creates nothing.
func TestFailedPlanLeavesNothing(t *testing.T) {
	for name, c := range map[string]struct {
		args  []string
		setup func(dir string) // what makes the build fail
	}{
		// The metadata pass fails.
		"metadata": {args: []string{"-spill", "/nonexistent/spill"}},
		// Fragment 0 is created; fragment 1 cannot be, a directory holds its name.
		"fragments": {args: []string{"-shards", "2"}, setup: func(dir string) {
			if err := os.Mkdir(filepath.Join(dir, "p.json.frag1"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		dir := t.TempDir()
		if c.setup != nil {
			c.setup(dir)
		}
		args := append([]string{"plan", "-files", "100", "-seed", "3"}, c.args...)
		var stdout, stderr bytes.Buffer
		if code := Main(append(args, "-plan", filepath.Join(dir, "p.json")), &stdout, &stderr); code != 1 {
			t.Errorf("%s: Main(%q) = %d, want 1 (stderr: %s)", name, args, code, stderr.String())
		}
		left, _ := os.ReadDir(dir)
		for _, e := range left {
			if !e.IsDir() {
				t.Errorf("%s: the failed build left %s behind", name, e.Name())
			}
		}
	}
}

// tarSegments plans faultCfgArgs as two shards under dir and writes each
// shard's tar segment with `worker -format tar`.
func tarSegments(t *testing.T, dir string) (plan string, segments []string) {
	t.Helper()
	plan = filepath.Join(dir, "plan.json")
	if err := run(append(append([]string{"plan"}, faultCfgArgs...), "-shards", "2", "-plan", plan), io.Discard, io.Discard); err != nil {
		t.Fatalf("plan: %v", err)
	}
	for s := 0; s < 2; s++ {
		seg := filepath.Join(dir, fmt.Sprintf("seg%d.tar", s))
		args := []string{"worker", "-plan", plan, "-shard", strconv.Itoa(s), "-format", "tar", "-out", seg, "-manifest", filepath.Join(dir, fmt.Sprintf("m%d.json", s))}
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("worker %d: %v", s, err)
		}
		segments = append(segments, seg)
	}
	return plan, segments
}

// TestFailedImageLeavesNothing: a command that fails after it has created
// its archive — a tar or squashfs image, a tar segment, a stitched tar —
// removes it, so no torn archive is left at -out to be taken for a whole
// one. The writes of the first three fail at the file size limit of a
// helper process; the stitch is handed its segments in the wrong order.
func TestFailedImageLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	dir := t.TempDir()
	plan, segments := tarSegments(t, dir)
	limited := func(args ...string) []string { return append([]string{"helper-fsize", "16384"}, args...) }
	for name, args := range map[string][]string{
		"tar":      limited(append([]string{"-format", "tar"}, faultCfgArgs...)...),
		"squashfs": limited(append([]string{"-format", "squashfs"}, faultCfgArgs...)...),
		"segment":  limited("worker", "-plan", plan, "-shard", "0", "-format", "tar", "-manifest", filepath.Join(dir, "m.json")),
		"stitch":   {"stitch", "-plan", plan},
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "image")
			args := append(slices.Clone(args), "-out", out)
			if name == "stitch" {
				args = append(args, segments[1], segments[0])
			}
			cmd := helperCommand(t, args...)
			output, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != 1 {
				t.Fatalf("%q exited %d (%v), want 1: %s", args, code, err, output)
			}
			if _, err := os.Lstat(out); err == nil {
				t.Errorf("%q failed and left %s behind", args, out)
			}
		})
	}
}

// TestStitchChecksTheShardTable: a plan whose shard table says one file of
// shard 0 is shard 1's still balances — the shard sums equal the header's
// totals — and, under an index that names it, its segments still stitch
// entry by entry; stitch holds the plan to that table as merge does, so
// both refuse it.
func TestStitchChecksTheShardTable(t *testing.T) {
	dir := t.TempDir()
	plan, segments := tarSegments(t, dir)
	entries := regexp.MustCompile(`"dirs":(\d+),"files":(\d+),"bytes":(\d+)\}`)
	tampered := filepath.Join(dir, "tampered", "plan.json")
	if err := os.Mkdir(filepath.Dir(tampered), 0o755); err != nil {
		t.Fatal(err)
	}
	var fingerprint string
	for s := 0; s < 2; s++ {
		frag, err := os.ReadFile(fmt.Sprintf("%s.frag%d", plan, s))
		if err != nil {
			t.Fatal(err)
		}
		shard := 0
		moved := entries.ReplaceAllStringFunc(string(frag), func(entry string) string {
			m := entries.FindStringSubmatch(entry)
			files, _ := strconv.Atoi(m[2])
			files += 2*shard - 1 // shard 0 one fewer, shard 1 one more
			shard++
			return fmt.Sprintf(`"dirs":%s,"files":%d,"bytes":%s}`, m[1], files, m[3])
		})
		if shard != 2 {
			t.Fatalf("fragment %d has %d shard table entries, want 2", s, shard)
		}
		if err := os.WriteFile(fmt.Sprintf("%s.frag%d", tampered, s), []byte(moved), 0o644); err != nil {
			t.Fatal(err)
		}
		// The plan the tampered fragments bind: the one the intact fragment
		// decodes to, with the same file moved in its shard table.
		view, err := distribute.DecodeShardView(bytes.NewReader(frag))
		if err != nil {
			t.Fatal(err)
		}
		view.Plan.Shards[0].Files--
		view.Plan.Shards[1].Files++
		fingerprint = view.Plan.Fingerprint()
	}
	index, err := os.ReadFile(plan)
	if err != nil {
		t.Fatal(err)
	}
	var ix distribute.FragmentIndex
	if err := json.Unmarshal(index, &ix); err != nil {
		t.Fatal(err)
	}
	ix.Fingerprint = fingerprint
	if err := writeJSONFile(tampered, ix.Encode); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "image.tar")
	for _, args := range [][]string{
		append([]string{"stitch", "-plan", tampered, "-out", out}, segments...),
		{"merge", "-plan", tampered, filepath.Join(dir, "m0.json"), filepath.Join(dir, "m1.json")},
	} {
		var stderr bytes.Buffer
		if code := Main(args, io.Discard, &stderr); code != 1 || !strings.Contains(stderr.String(), "expectations") || !strings.Contains(stderr.String(), fsimage.ErrManifestIntegrity.Error()) {
			t.Errorf("%s of a plan whose shard table moved a file exited %d: %s", args[0], code, stderr.String())
		}
	}
	if _, err := os.Lstat(out); err == nil {
		t.Errorf("the refused stitch left %s behind", out)
	}
}

// TestPlanPartitionWorkerMergePipeline drives the pipeline through the CLI
// end to end: plan -partition -spill writes fragments plus an index,
// worker -plan executes a shard from the index or from its fragment, and
// merge -plan of the index prints the single-process digest, names a
// withheld shard with a re-run line that completes the merge when run, and
// refuses an index whose fragment names leave its directory.
func TestPlanPartitionWorkerMergePipeline(t *testing.T) {
	dir := t.TempDir()
	cfgArgs := []string{"-files", "400", "-dirs", "80", "-seed", "9"}
	refDigest, _ := refDigestAndTree(t, cfgArgs)

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
	manifest := func(s int) string { return filepath.Join(dir, fmt.Sprintf("manifest-%d.json", s)) }
	frag := planPath + ".frag0"
	if err := run([]string{"worker", "-plan", frag, "-out", outRoot, "-manifest", manifest(0)}, io.Discard, io.Discard); err != nil {
		t.Fatalf("worker -plan %s: %v", frag, err)
	}

	// Shard 1 withheld: -partial names it, with the command that runs it from
	// the index, and that command completes the merge.
	var partial bytes.Buffer
	if err := run([]string{"merge", "-plan", planPath, "-partial", "-out", outRoot, manifest(0)}, &partial, io.Discard); err != nil {
		t.Fatalf("merge -partial: %v", err)
	}
	rerun := regexp.MustCompile(`(?m)^    re-run: impressions (.*)$`).FindAllStringSubmatch(partial.String(), -1)
	if want := "worker -plan " + planPath + " -shard 1 -out " + outRoot + " -manifest " + manifest(1); len(rerun) != 1 || rerun[0][1] != want {
		t.Fatalf("merge -partial of the index said:\n%s\nwant one re-run line %q", partial.String(), want)
	}
	if err := run(strings.Fields(rerun[0][1]), io.Discard, io.Discard); err != nil {
		t.Fatalf("the re-run line: %v", err)
	}
	var mergeOut bytes.Buffer
	if err := run([]string{"merge", "-plan", planPath, "-print-digest", manifest(0), manifest(1)}, &mergeOut, io.Discard); err != nil {
		t.Fatalf("merge -plan of the index: %v", err)
	}
	if got := extractDigest(t, mergeOut.Bytes()); got != refDigest {
		t.Errorf("fragment pipeline digest %q != single-process %q", got, refDigest)
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
	if code := Main([]string{"merge", "-plan", hostile, "-print-digest", manifest(0), manifest(1)}, io.Discard, &errOut); code != 1 {
		t.Errorf("merge -plan with a fragment named ../../secret.txt exited %d, want 1", code)
	}
	if msg := errOut.String(); !strings.Contains(msg, "fragment index names fragment 0") || !strings.Contains(msg, fsimage.ErrManifestIntegrity.Error()) || strings.Contains(msg, "hunter2") {
		t.Errorf("merge -plan with a fragment named ../../secret.txt said:\n%s", msg)
	}
}

// TestMergeRefusesStrayManifest: a manifest naming a shard the plan does not
// have fails the merge: exit 1, an integrity violation, from the one merge,
// whichever way the plan and its manifests were made. "plan" plans with
// -shards and runs each worker from the index; "index" plans with its
// synonym -partition and runs each worker from its fragment.
func TestMergeRefusesStrayManifest(t *testing.T) {
	dir := t.TempDir()
	cfgArgs := []string{"-files", "120", "-dirs", "30", "-size", "200KB", "-seed", "9"}
	for _, mode := range []struct {
		name, shards string
		worker       func(plan string, s int) []string
	}{
		{"plan", "-shards", func(plan string, s int) []string { return []string{"-plan", plan, "-shard", strconv.Itoa(s)} }},
		{"index", "-partition", func(plan string, s int) []string { return []string{"-plan", fmt.Sprintf("%s.frag%d", plan, s)} }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			plan := filepath.Join(dir, mode.name+".json")
			if err := run(append(append([]string{"plan"}, cfgArgs...), mode.shards, "2", "-plan", plan), io.Discard, io.Discard); err != nil {
				t.Fatalf("plan: %v", err)
			}
			var manifests []string
			for s := 0; s < 2; s++ {
				m := filepath.Join(dir, fmt.Sprintf("%s-manifest-%d.json", mode.name, s))
				args := append(append([]string{"worker"}, mode.worker(plan, s)...), "-out", filepath.Join(dir, mode.name+"-out"), "-manifest", m)
				if err := run(args, io.Discard, io.Discard); err != nil {
					t.Fatalf("worker %d: %v", s, err)
				}
				manifests = append(manifests, m)
			}
			stray, err := distribute.LoadManifest(manifests[1])
			if err != nil {
				t.Fatal(err)
			}
			stray.Shard = 7
			stray.Seal()
			manifests[1] = filepath.Join(dir, mode.name+"-stray.json")
			if err := writeJSONFile(manifests[1], stray.Encode); err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			if code := Main(append([]string{"merge", "-plan", plan}, manifests...), io.Discard, &stderr); code != 1 {
				t.Errorf("merge with a manifest for shard 7 of 2 exited %d, want 1", code)
			}
			if msg := stderr.String(); !strings.Contains(msg, "manifest for unknown shard 7 (plan has 2 shards)") || !strings.Contains(msg, fsimage.ErrManifestIntegrity.Error()) {
				t.Errorf("merge with a manifest for shard 7 of 2 said: %s", msg)
			}
		})
	}
}

// TestWorkerShardSources runs a worker from every source a shard comes from
// — a fragment index, a fragment, a daemon's shard URL — with and without
// -shard. An index needs -shard, and a shard document names its own shard,
// so -shard naming another one is a usage error (exit 2, no manifest)
// instead of being ignored. The rest write the manifest a worker of the
// index writes, one -from row although the daemon answers its first request
// 503, as a daemon that is restarting or draining does.
func TestWorkerShardSources(t *testing.T) {
	dir := t.TempDir()
	index := filepath.Join(dir, "plan.json")
	if err := run(append(append([]string{"plan"}, faultCfgArgs...), "-shards", "2", "-plan", index), io.Discard, io.Discard); err != nil {
		t.Fatalf("plan: %v", err)
	}
	fragment := func(s int) string { return fmt.Sprintf("%s.frag%d", index, s) }
	want := make([][]byte, 2)
	for s := range want {
		m := filepath.Join(dir, fmt.Sprintf("want-%d.json", s))
		if err := run([]string{"worker", "-plan", index, "-shard", strconv.Itoa(s), "-out", filepath.Join(dir, "out"), "-manifest", m}, io.Discard, io.Discard); err != nil {
			t.Fatalf("worker %d: %v", s, err)
		}
		var err error
		if want[s], err = os.ReadFile(m); err != nil {
			t.Fatal(err)
		}
	}

	// A daemon that serves fragment 0 as its shard 0, and turns a request
	// away when told to.
	served, err := os.ReadFile(fragment(0))
	if err != nil {
		t.Fatal(err)
	}
	var turnAway atomic.Bool
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case turnAway.Swap(false):
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case r.URL.Path == "/v1/plans/f00/shards/0":
			w.Write(served)
		default:
			http.NotFound(w, r)
		}
	}))
	defer daemon.Close()
	from := daemon.URL + "/v1/plans/f00/shards/0"

	for _, c := range []struct {
		name   string
		source []string
		shard  int  // the shard the worker must execute
		busy   bool // the daemon answers the first request 503
		want   int
	}{
		{"index", []string{"-plan", index, "-shard", "1"}, 1, false, 0},
		{"index without -shard", []string{"-plan", index}, 0, false, 2},
		{"index -shard out of range", []string{"-plan", index, "-shard", "2"}, 0, false, 2},
		{"fragment", []string{"-plan", fragment(1)}, 1, false, 0},
		{"fragment -shard its own", []string{"-plan", fragment(1), "-shard", "1"}, 1, false, 0},
		{"fragment -shard another", []string{"-plan", fragment(0), "-shard", "1"}, 0, false, 2},
		{"from", []string{"-from", from}, 0, false, 0},
		{"from a busy daemon", []string{"-from", from}, 0, true, 0},
		{"from -shard its own", []string{"-from", from, "-shard", "0"}, 0, false, 0},
		{"from -shard another", []string{"-from", from, "-shard", "1"}, 0, false, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			turnAway.Store(c.busy)
			m := filepath.Join(t.TempDir(), "manifest.json")
			var stdout, stderr bytes.Buffer
			args := append(append([]string{"worker"}, c.source...), "-out", filepath.Join(dir, "out"), "-manifest", m)
			if code := Main(args, &stdout, &stderr); code != c.want {
				t.Fatalf("Main(%q) = %d, want %d: %s", args, code, c.want, stderr.String())
			}
			got, err := os.ReadFile(m)
			switch {
			case c.want != 0 && err == nil:
				t.Errorf("a refused worker wrote a manifest")
			case c.want != 0 && stdout.Len() > 0:
				t.Errorf("a refused worker printed %q", stdout.String())
			case c.want == 0 && !bytes.Equal(got, want[c.shard]):
				t.Errorf("the manifest (%v) is not the one a worker of the index writes for shard %d", err, c.shard)
			}
		})
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
		// A tar segment keeps no journal: refused before the plan is opened.
		{"worker tar -work", []string{"worker", "-plan", filepath.Join(stray, "p.json"), "-shard", "0", "-format", "tar", "-out", filepath.Join(stray, "seg.tar"), "-manifest", filepath.Join(stray, "m.json"), "-work", filepath.Join(stray, "work")}, 2},
		{"worker tar -fail-after-files", []string{"worker", "-plan", filepath.Join(stray, "p.json"), "-shard", "0", "-format", "tar", "-out", filepath.Join(stray, "seg.tar"), "-manifest", filepath.Join(stray, "m.json"), "-fail-after-files", "5"}, 2},
		{"worker plan+from conflict", []string{"worker", "-plan", "p.json", "-from", "http://x/v1/plans/f/shards/0", "-out", t.TempDir(), "-manifest", "m.json"}, 2},
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
		{"worker stray argument", []string{"worker", "-plan", filepath.Join(stray, "p.json"), "-shard", "0", "-out", filepath.Join(stray, "w"), "-manifest", filepath.Join(stray, "m.json"), "stray", "-metadata-only"}, 2},
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
		// A shard count that describes no plan is a usage error, raised before
		// anything is created: it used to fail late, or not at all.
		{"plan -shards -2", []string{"plan", "-files", "30", "-shards", "-2", "-plan", filepath.Join(stray, "p.json")}, 2},
		{"plan -shards 0", []string{"plan", "-files", "30", "-shards", "0", "-partition", "4", "-plan", filepath.Join(stray, "p.json")}, 2},
		{"plan -partition -1", []string{"plan", "-files", "30", "-partition", "-1", "-plan", filepath.Join(stray, "p.json")}, 2},
		{"distrun -shards 0", []string{"distrun", "-files", "30", "-shards", "0", "-work", filepath.Join(stray, "work"), "-out", filepath.Join(stray, "dist")}, 2},
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
	// A -size that is not a size is a usage error naming it. A size under
	// one byte used to become 0, and so no size at all; one that is not
	// finite or reaches 2^63 bytes used to be reported as a negative size.
	for _, args := range [][]string{
		{"-files", "10", "-size", "0.4"},
		{"-files", "10", "-size", "nan"},
		{"-files", "10", "-size", "inf"},
		{"-files", "10", "-size", "1e30"},
		{"plan", "-files", "10", "-size", "9.3e18", "-plan", filepath.Join(stray, "p.json")},
		fleetrun("-files", "10", "-size", "-inf"),
	} {
		var stdout, stderr bytes.Buffer
		size := args[slices.Index(args, "-size")+1]
		if got := Main(args, &stdout, &stderr); got != 2 || stdout.Len() > 0 || !strings.Contains(stderr.String(), strconv.Quote(size)) {
			t.Errorf("Main(%q) = %d, want 2 with no output and an error naming %q (stdout: %s, stderr: %s)", args, got, size, stdout.String(), stderr.String())
		}
	}
	// A size-model or layout flag that is not a finite number in range is a
	// usage error naming the flag. NaN used to pass both bounds: as -size-mu
	// or -size-sigma it kept the default model, as -layout it failed only
	// when the report was written. A mean past int64 used to be reported by
	// the resolver as a negative target.
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-size-mu", []string{"-files", "100", "-size-mu", "NaN"}},
		{"-size-sigma", []string{"-files", "100", "-size-sigma", "NaN"}},
		{"-layout", []string{"-files", "100", "-layout", "NaN", "-report", filepath.Join(stray, "r.json")}},
		{"-size-mu", []string{"-files", "100", "-size-mu", "Inf"}},
		{"-size-mu", []string{"-files", "100", "-size-mu", "1e308"}},
		{"-size-sigma", []string{"-files", "100", "-size-sigma", "-Inf"}},
		{"-size-sigma", []string{"plan", "-files", "10", "-size-sigma", "1e200", "-plan", filepath.Join(stray, "p.json")}},
		{"-layout", []string{"distrun", "-files", "10", "-layout", "NaN", "-out", filepath.Join(stray, "dist")}},
	} {
		var stdout, stderr bytes.Buffer
		if got := Main(c.args, &stdout, &stderr); got != 2 || stdout.Len() > 0 || !strings.Contains(stderr.String(), c.flag+" ") {
			t.Errorf("Main(%q) = %d, want 2 with no output and an error naming %s (stdout: %s, stderr: %s)", c.args, got, c.flag, stdout.String(), stderr.String())
		}
	}
	// A size model whose files pass int64 bytes is a usage error naming the
	// spec, with a -size as without one. With one it used to be resolved: each
	// e^700 draw became MinInt64 bytes, and the run reported 0 bytes.
	for _, args := range [][]string{
		{"-files", "10", "-dirs", "2", "-size", "1GB", "-size-mu", "700", "-size-sigma", "0.1"},
		{"-files", "10", "-dirs", "2", "-size-mu", "700", "-size-sigma", "0.1"},
	} {
		var stdout, stderr bytes.Buffer
		if got := Main(args, &stdout, &stderr); got != 2 || stdout.Len() > 0 || !strings.Contains(stderr.String(), "10 files at a mean size of") {
			t.Errorf("Main(%q) = %d, want 2 with no output and an error naming the 10 files and their mean (stdout: %s, stderr: %s)", args, got, stdout.String(), stderr.String())
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
// status. Marker commands stage faults: "helper-sleep" wedges forever (a
// hung worker), "helper-await <file>... -- <command>" runs the command only
// once the files exist, so that sibling shards have finished before this one
// misbehaves, "helper-wedge-workers <command>" runs a distrun whose every
// worker is a helper-sleep, and "helper-fsize <bytes> <command>" runs the
// command under that file size limit, past which a write fails (EFBIG).
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
		case "helper-fsize":
			limit, err := strconv.ParseUint(args[1], 10, 64)
			if err == nil {
				err = syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: limit})
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "helper-fsize:", err)
				os.Exit(3)
			}
			args = args[2:]
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

	out, work := filepath.Join(t.TempDir(), "image"), t.TempDir()
	report := filepath.Join(t.TempDir(), "report.json")
	buf.Reset()
	distArgs := append([]string{"distrun"}, cfgArgs...)
	distArgs = append(distArgs, "-shards", "3", "-work", work, "-out", out, "-report", report)
	if err := run(distArgs, &buf, io.Discard); err != nil {
		t.Fatalf("distrun: %v", err)
	}
	// distrun writes its plan from the same pass `plan` streams.
	planPath := filepath.Join(t.TempDir(), "plan.json")
	if err := run(append(append([]string{"plan"}, cfgArgs...), "-shards", "3", "-plan", planPath), io.Discard, io.Discard); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if want, got := readFile(t, planPath), readFile(t, filepath.Join(work, "plan.json")); !bytes.Equal(got, want) {
		t.Error("distrun's plan.json differs from the one `plan -shards 3` writes")
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

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
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
					view, err := shardView(filepath.Join(work, "plan.json"), 1)
					if err != nil {
						t.Error(err)
						return args
					}
					// The 10 files the first attempt sealed: the first of the
					// shard's directory order.
					for i := range 10 {
						if f := view.Files[i]; f.Size > 1 {
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

	views := make([]*distribute.ShardView, 3)
	for shard := range views {
		v, err := shardView(filepath.Join(work, "plan.json"), shard)
		if err != nil {
			t.Fatal(err)
		}
		views[shard] = v
	}
	modTime := func(v *distribute.ShardView, f fsimage.File) time.Time {
		info, err := os.Stat(filepath.Join(out, filepath.FromSlash(v.Tree.Path(f.DirID)), f.Name))
		if err != nil {
			t.Fatal(err)
		}
		return info.ModTime()
	}
	before := map[int]time.Time{}
	for _, shard := range []int{0, 2} {
		for _, f := range views[shard].Files {
			before[f.ID] = modTime(views[shard], f)
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
	for shard, resumed := range map[int]int{0: len(views[0].Files), 1: 5, 2: len(views[2].Files)} {
		want := fmt.Sprintf("%d+%d", resumed, len(views[shard].Files)-resumed)
		if got := wrote[strconv.Itoa(shard)]; got != want {
			t.Errorf("shard %d resumed+wrote %q files, want %q:\n%s", shard, got, want, stdout)
		}
	}
	for _, shard := range []int{0, 2} {
		for _, f := range views[shard].Files {
			if now := modTime(views[shard], f); !now.Equal(before[f.ID]) {
				t.Errorf("file %d of a finished shard was written again (mtime %s, was %s)", f.ID, now, before[f.ID])
			}
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
	var views [2]*distribute.ShardView
	for s := range views {
		v, err := shardView(planPath, s)
		if err != nil {
			t.Fatal(err)
		}
		views[s] = v
	}
	// With 60 dirs for 10 files most directories are empty leaves. A shard's
	// tree counts the files of that shard only.
	removed := ""
	for id, d := range views[0].Tree.Dirs {
		if id != 0 && d.FileCount == 0 && views[1].Tree.Dirs[id].FileCount == 0 && d.SubdirCount == 0 {
			removed = filepath.Join(out, filepath.FromSlash(views[0].Tree.Path(id)))
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
// Writing small's 5000 files to a directory is most of the test's time, so
// each of those modes runs at one -j: the content at -j 4, the sizes alone
// at -j 1; default's tree holds both modes at both.
func TestGeneratePins(t *testing.T) {
	specs := []struct {
		name  string
		args  []string
		modes string // the modes run, by name; "" runs all
	}{
		{"default", []string{"-files", "120", "-dirs", "30", "-size", "200KB", "-seed", "1337"}, ""},
		{"small", []string{"-files", "5000", "-dirs", "500", "-size", "5734400", "-size-mu", "6.9", "-size-sigma", "0.5", "-seed", "20090225"}, ""},
		// No -size: nothing for the report to hold the image to. The sinks
		// are small's; the report and the archive's bytes are pinned.
		{"unconstrained", []string{"-files", "5000", "-size-mu", "6.9", "-size-sigma", "0.5", "-seed", "20090225"}, "dryrun digest tar"},
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
			if spec.modes != "" && !slices.Contains(strings.Fields(spec.modes), mode.name) {
				continue
			}
			update := *updatePins // the first -j run writes the golden, the other must match it
			for _, j := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/j=%d", spec.name, mode.name, j)
				if name == "small/dir/j=1" || name == "small/dir-metadata-only/j=4" {
					continue
				}
				write := update
				update = false
				t.Run(name, func(t *testing.T) {
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
					if has := bytes.Contains(data, []byte(`"sum_error"`)); has != slices.Contains(spec.args, "-size") {
						t.Errorf("report.json carries a sum_error: %v; the spec passes -size: %v", has, !has)
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
					if write {
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

var generatedAtJSONRe = regexp.MustCompile(`"generated_at": "[^"]*"`)

// TestDistributedPins pins what the merge and distrun commands print over
// faultCfgArgs' image: `merge -plan` complete (with its -report JSON), with
// -print-digest, and with -partial over a set missing shard 1 and holding a
// shard 2 manifest with one entry's size changed and resealed; each shard's
// worker (its output and manifest) run from the index and from its
// fragment, and `merge -plan` over their manifests, which must print the
// same; `stitch` over three tar segments (its output and the archive's
// SHA-256, which is the single-process archive's); and distrun's `distrun:`
// and `image digest:` lines and its -report JSON. The `generated at` values
// are masked and temp paths read $T. The merge and distrun goldens were
// written at the commit before the merge stopped retaining the plan, the
// worker-fragment and stitch ones at the commit before -plan took a fragment
// index and a shard document (by `worker -fragment` and `stitch -plan
// <document>`), and none has changed since: not when `plan` stopped writing
// a plan document either.
func TestDistributedPins(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	dir := t.TempDir()
	mask := func(s string) string {
		s = strings.ReplaceAll(s, dir, "$T")
		s = generatedAtRe.ReplaceAllString(s, "${1}<masked>")
		return generatedAtJSONRe.ReplaceAllString(s, `"generated_at": "<masked>"`)
	}
	pin := func(t *testing.T, name, got string) {
		t.Helper()
		golden := filepath.Join("testdata", "distributed", name+".golden")
		if *updatePins {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s moved:\n--- got\n%s\n--- want\n%s", golden, got, want)
		}
	}
	// cli runs one command in process and renders its exit status and output.
	cli := func(t *testing.T, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		code := Main(args, &stdout, &stderr)
		return mask(fmt.Sprintf("--- exit %d\n--- stdout\n%s--- stderr\n%s", code, stdout.String(), stderr.String()))
	}
	must := func(t *testing.T, args ...string) {
		t.Helper()
		var stderr bytes.Buffer
		if code := Main(args, io.Discard, &stderr); code != 0 {
			t.Fatalf("Main(%q) = %d: %s", args, code, stderr.String())
		}
	}
	file := func(t *testing.T, path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return mask(string(data))
	}

	plan, out := filepath.Join(dir, "plan.json"), filepath.Join(dir, "out")
	manifest := func(s int) string { return filepath.Join(dir, fmt.Sprintf("manifest-%d.json", s)) }
	must(t, append(append([]string{"plan"}, faultCfgArgs...), "-shards", "3", "-plan", plan)...)
	for s := 0; s < 3; s++ {
		must(t, "worker", "-plan", plan, "-shard", strconv.Itoa(s), "-out", out, "-manifest", manifest(s))
	}
	m2, err := distribute.LoadManifest(manifest(2))
	if err != nil {
		t.Fatal(err)
	}
	m2.FileDigests[0].Size++
	m2.Seal()
	resealed := filepath.Join(dir, "resealed-2.json")
	if err := writeJSONFile(resealed, m2.Encode); err != nil {
		t.Fatal(err)
	}

	t.Run("merge-plan", func(t *testing.T) {
		report := filepath.Join(dir, "merge-report.json")
		got := cli(t, "merge", "-plan", plan, "-report", report, manifest(0), manifest(1), manifest(2))
		pin(t, "merge-plan", got+"--- report\n"+file(t, report))
	})
	t.Run("merge-plan-print-digest", func(t *testing.T) {
		pin(t, "merge-plan-print-digest", cli(t, "merge", "-plan", plan, "-print-digest", manifest(0), manifest(1), manifest(2)))
	})
	t.Run("merge-plan-partial", func(t *testing.T) {
		pin(t, "merge-plan-partial", cli(t, "merge", "-plan", plan, "-partial", "-out", out, manifest(0), resealed))
	})
	// Each shard is executed again, from the index, from its fragment, and
	// from its fragment naming the shard, and each way must print and write
	// what `worker -fragment` did.
	if err := os.Mkdir(filepath.Join(dir, "part"), 0o755); err != nil {
		t.Fatal(err)
	}
	fragment := func(s int) string { return fmt.Sprintf("%s.frag%d", plan, s) }
	var manifests []string
	for s := 0; s < 3; s++ {
		manifests = append(manifests, filepath.Join(dir, "part", fmt.Sprintf("manifest-%d.json", s)))
	}
	for _, way := range []struct {
		name  string
		shard func(s int) []string
	}{
		{"index", func(s int) []string { return []string{"-plan", plan, "-shard", strconv.Itoa(s)} }},
		{"fragment", func(s int) []string { return []string{"-plan", fragment(s)} }},
		{"fragment-shard", func(s int) []string { return []string{"-plan", fragment(s), "-shard", strconv.Itoa(s)} }},
	} {
		t.Run("worker-fragment/"+way.name, func(t *testing.T) {
			var got strings.Builder
			for s := 0; s < 3; s++ {
				got.WriteString(cli(t, append(append([]string{"worker"}, way.shard(s)...), "-out", filepath.Join(dir, "part-out"), "-manifest", manifests[s])...))
				got.WriteString("--- manifest\n" + file(t, manifests[s]))
			}
			pin(t, "worker-fragment", got.String())
		})
	}
	t.Run("merge-fragment-manifests", func(t *testing.T) {
		report := filepath.Join(dir, "part", "merge-report.json")
		got := cli(t, append([]string{"merge", "-plan", plan, "-report", report}, manifests...)...)
		pin(t, "merge-plan", got+"--- report\n"+file(t, report))
		pin(t, "merge-plan-print-digest", cli(t, append([]string{"merge", "-plan", plan, "-print-digest"}, manifests...)...))
	})
	t.Run("stitch", func(t *testing.T) {
		single := filepath.Join(dir, "single.tar")
		must(t, append(append([]string{}, faultCfgArgs...), "-format", "tar", "-out", single)...)
		want, err := os.ReadFile(single)
		if err != nil {
			t.Fatal(err)
		}
		var segments []string
		for s := 0; s < 3; s++ {
			seg := filepath.Join(dir, fmt.Sprintf("seg-%d.tar", s))
			must(t, "worker", "-plan", plan, "-shard", strconv.Itoa(s), "-format", "tar", "-out", seg, "-manifest", filepath.Join(dir, fmt.Sprintf("seg-manifest-%d.json", s)))
			segments = append(segments, seg)
		}
		image := filepath.Join(dir, "stitched.tar")
		got := cli(t, append([]string{"stitch", "-plan", plan, "-out", image}, segments...)...)
		data, err := os.ReadFile(image)
		if err != nil {
			t.Fatal(err)
		}
		pin(t, "stitch", fmt.Sprintf("%s--- sha256 %x\n", got, sha256.Sum256(data)))
		if !bytes.Equal(data, want) {
			t.Errorf("stitch -plan wrote another archive than -format tar")
		}
	})
	t.Run("distrun", func(t *testing.T) {
		rerouteWorkers(t, nil)
		report := filepath.Join(dir, "distrun-report.json")
		var stdout, stderr bytes.Buffer
		args := append(append([]string{"distrun"}, faultCfgArgs...), "-shards", "3", "-work", filepath.Join(dir, "work"), "-out", filepath.Join(dir, "dist"), "-report", report)
		if code := Main(args, &stdout, &stderr); code != 0 {
			t.Fatalf("distrun exited %d: %s", code, stderr.String())
		}
		// Worker lines come in whatever order the workers finish.
		var got strings.Builder
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if strings.HasPrefix(line, "distrun:") || strings.HasPrefix(line, "image digest:") {
				got.WriteString(line)
			}
		}
		pin(t, "distrun", mask(got.String())+"--- report\n"+file(t, report))
	})
}

// TestGenerateMemoryBound: once the metadata is resolved the single-process
// command holds the columns, the directory tree and a sink's window, never
// the image's file records. The replay sampler starts when the summary line
// is printed — from there on the run replays the metadata into the sink —
// and its peak over the heap at that point, columns and tree included, must
// be the same at N and at 4N files under the same directories, give or take
// a fixed slack. A second sampler, started before Main, watches the whole
// command. Its metadata pass holds the columns on the heap, so it grows with
// the files, but by no more per file than it did; the pass is the same for
// every sink, and the tar run, whose N is the larger, bounds it.
func TestGenerateMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("memory ceilings are not meaningful under the race detector")
	}
	// Measured here (2 cores, Go 1.24): the replay peaks 0 to 0.7 MB apart
	// at N and 4N onto either sink; one that kept every file record it
	// replayed, 4.4 to 4.7 MB apart onto the directory and over 50 MB onto
	// the tar sink. The whole command grows onto the tar sink by its columns
	// and the metadata pass's work arrays, 65 to 76 B a file; the bound is 96.
	const slack, wholePerFile = 3 << 20, 96
	// The sampler reads HeapAlloc, garbage included: collect often enough
	// that the peak is the live heap and not the collector's pacing.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	for _, c := range []struct {
		name    string
		n, dirs int // N files, enough for the 20 ms sampler to see the replay, under dirs directories
		out     func() []string
	}{
		{"tar", 100_000, 3000, func() []string { return []string{"-format", "tar", "-out", os.DevNull} }},
		{"dir", 10_000, 300, func() []string { return []string{"-out", t.TempDir()} }},
	} {
		name, n := c.name, c.n
		var replay, whole [2]uint64
		for i, files := range []int{n, 4 * n} {
			spec := []string{"-files", strconv.Itoa(files), "-dirs", strconv.Itoa(c.dirs), "-size", strconv.Itoa(files * 1147), "-size-mu", "6.9", "-size-sigma", "0.5", "-seed", "20090225", "-j", "2", "-metadata-only"}
			wholeSampler := startMemSampler()
			var sampler *memSampler
			stdout := writerFunc(func(p []byte) (int, error) {
				if sampler == nil {
					sampler = startMemSampler()
				}
				return len(p), nil
			})
			var stderr bytes.Buffer
			code := Main(append(spec, c.out()...), stdout, &stderr)
			whole[i], _, _ = wholeSampler.stop()
			if code != 0 || sampler == nil {
				t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
			}
			replay[i], _, _ = sampler.stop()
		}
		t.Logf("%s: replaying %d and %d files peaked at %.1f and %.1f MB over the heap it began with (slack %d MB); the whole command at %.1f and %.1f MB",
			name, n, 4*n, float64(replay[0])/(1<<20), float64(replay[1])/(1<<20), slack>>20, float64(whole[0])/(1<<20), float64(whole[1])/(1<<20))
		if replay[1] > replay[0]+slack {
			t.Errorf("%s: replaying %d files peaked at %.1f MB of heap, %d files at %.1f MB: more than %d MB apart — something is retaining the file records",
				name, n, float64(replay[0])/(1<<20), 4*n, float64(replay[1])/(1<<20), slack>>20)
		}
		if grow := (float64(whole[1]) - float64(whole[0])) / float64(3*n); name == "tar" && grow > wholePerFile {
			t.Errorf("%s: the whole command grew by %.0f B a file from %d to %d files, bound %d B — the metadata pass holds more than it did",
				name, grow, n, 4*n, wholePerFile)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// shardView reads one shard of the plan at path, as a worker does.
func shardView(path string, shard int) (*distribute.ShardView, error) {
	pf, err := distribute.OpenPlanFile(path)
	if err != nil {
		return nil, err
	}
	return pf.View(shard)
}
