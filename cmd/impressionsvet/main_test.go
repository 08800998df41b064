package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGoVetVettool exercises the unitchecker protocol end to end: build
// the checker, hand it to `go vet -vettool`, and require a clean package.
// It vets one deterministic package, internal/stats, which the protocol
// needs as much as the module does; CI's lint job and `make lint` run the
// same invocation over the whole module, and TestModuleIsClean vets it too.
func TestGoVetVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets a package; skipped in -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}

	bin := filepath.Join(t.TempDir(), "impressionsvet")
	build := exec.Command(goTool, "build", "-o", bin, "./cmd/impressionsvet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	vet := exec.Command(goTool, "vet", "-vettool="+bin, "./internal/stats")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool reported findings or failed: %v\n%s", err, out)
	}
}
