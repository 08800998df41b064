package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"impressions/internal/analysis"
)

// TestModuleIsClean is `make lint`'s determinism-contract step run as a
// test: the same CheckModule over the whole module, which must produce zero
// findings. Any regression against the determinism contract fails here
// (and in CI's lint job) before it can reach a digest test.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module; skipped in -short")
	}
	findings, pkgs, err := analysis.CheckModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("module enumeration looks broken: only %d packages: %v", len(pkgs), pkgs)
	}
	for _, f := range findings {
		t.Errorf("determinism contract violation: %s", f)
	}
}

// TestCheckModuleOnAModuleOfItsOwn runs CheckModule over a throwaway module:
// it finds the go.mod above a subdirectory, checks every package in it, and
// renders a finding as "file:line:col: message [analyzer]".
func TestCheckModuleOnAModuleOfItsOwn(t *testing.T) {
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
	write("go.mod", "module vetcheck\n\ngo 1.24\n")
	write("clean/clean.go", "package clean\n\nfunc Add(a, b int) int { return a + b }\n")

	findings, pkgs, err := analysis.CheckModule(filepath.Join(mod, "clean"))
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 || !slices.Equal(pkgs, []string{"vetcheck/clean"}) {
		t.Fatalf("clean module: findings %q, packages %q; want none and [vetcheck/clean]", findings, pkgs)
	}

	write("backoff/backoff.go", "package backoff\n\nimport \"math/rand\"\n\nfunc Jitter() int {\n\treturn rand.Intn(10)\n}\n")
	findings, pkgs, err = analysis.CheckModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pkgs, []string{"vetcheck/backoff", "vetcheck/clean"}) {
		t.Fatalf("packages %q, want [vetcheck/backoff vetcheck/clean]", pkgs)
	}
	want := filepath.Join(mod, "backoff", "backoff.go") + ":6:"
	if len(findings) != 1 || !strings.HasPrefix(findings[0], want) || !strings.HasSuffix(findings[0], "[detclock]") {
		t.Fatalf("global rand.Intn: findings %q, want one detclock finding at %s", findings, want)
	}
}

// TestCheckModuleRejectsGoModWithoutModule: a go.mod with no module
// directive is an error, not an empty module.
func TestCheckModuleRejectsGoModWithoutModule(t *testing.T) {
	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("go 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if findings, pkgs, err := analysis.CheckModule(mod); err == nil || !strings.Contains(err.Error(), "no module directive") {
		t.Fatalf("CheckModule = %q, %q, %v; want a no-module-directive error", findings, pkgs, err)
	}
}

// TestAllIsTheFiveAnalyzers pins the suite CheckModule runs and
// impressionsvet -h lists: five analyzers, each named and documented once.
func TestAllIsTheFiveAnalyzers(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q has no Doc or no Run", a.Name)
		}
		names = append(names, a.Name)
	}
	if want := []string{"detclock", "detmap", "rngderive", "errwrapsentinel", "ctxflow"}; !slices.Equal(names, want) {
		t.Fatalf("All() = %q, want %q", names, want)
	}
}
