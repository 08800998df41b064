package main_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckerExitCodes builds the checker and runs it in a module of its
// own: a clean module exits 0 and prints nothing, a global math/rand draw
// (detclock's module-wide rule) exits 2 naming its file and line, and any
// argument exits 1 without checking anything.
func TestCheckerExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the checker; skipped in -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "impressionsvet")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	mod := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = mod
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), string(out)
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0, string(out)
	}

	write("go.mod", "module vetcheck\n\ngo 1.24\n")
	write("clean/clean.go", "package clean\n\nfunc Add(a, b int) int { return a + b }\n")
	if code, out := run(); code != 0 || out != "" {
		t.Fatalf("clean module: exit %d, want 0 with no output:\n%s", code, out)
	}

	write("backoff/backoff.go", "package backoff\n\nimport \"math/rand\"\n\nfunc Jitter() int {\n\treturn rand.Intn(10)\n}\n")
	code, out := run()
	if want := filepath.Join("backoff", "backoff.go") + ":6:"; code != 2 || !strings.Contains(out, want) || !strings.Contains(out, "[detclock]") {
		t.Fatalf("global rand.Intn: exit %d, want 2 with a detclock finding at %s:\n%s", code, want, out)
	}

	for _, args := range [][]string{{"./..."}, {"./backoff"}, {"-c", "detclock"}, {"-list"}} {
		if code, out := run(args...); code != 1 || strings.Contains(out, "backoff.go") {
			t.Errorf("impressionsvet %q: exit %d, want 1 with nothing checked:\n%s", args, code, out)
		}
	}
}
