package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the canonical import path.
	Path string
	// Files holds the non-test syntax trees, parsed with comments.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Fset is the file set the package was parsed with (the loader's).
	Fset *token.FileSet
}

// A Loader parses and type-checks packages from source using only the
// standard library — no go/packages, no export data, no network — so the
// analyzers and their tests run in hermetic environments. Import paths
// resolve through an optional overlay (analysistest fixtures), then the
// module being analyzed, then GOROOT (with the std vendor fallback).
//
// Type-checking the transitive std closure from source costs ~1.5s for the
// whole module and is cached per Loader, so CheckModule uses one Loader for
// every package.
type Loader struct {
	Fset *token.FileSet
	ctxt build.Context

	modRoot string // module root directory ("" if none)
	modPath string // module path from go.mod

	overlayRoot string // fixture tree laid out as <root>/<import path>/ ("")

	loaded  map[string]*Package
	loading map[string]bool
	info    *types.Info
}

// NewFixtureLoader returns a loader that resolves import paths inside the
// given overlay tree first (laid out GOPATH-style: <root>/<import path>/*.go),
// falling back to GOROOT. analysistest uses it.
func NewFixtureLoader(root string) *Loader {
	l := newLoader()
	l.overlayRoot = root
	return l
}

func newLoader() *Loader {
	ctxt := build.Default
	// Pure-Go view of every package: cgo-conditioned files (net, os/user)
	// are replaced by their portable fallbacks, which is exactly what we
	// want for type-checking without invoking cgo.
	ctxt.CgoEnabled = false
	l := &Loader{
		Fset:    token.NewFileSet(),
		ctxt:    ctxt,
		loaded:  make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	return l
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// dirFor resolves an import path to a source directory.
func (l *Loader) dirFor(path string) (string, error) {
	if l.overlayRoot != "" {
		dir := filepath.Join(l.overlayRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	if l.modRoot != "" {
		if path == l.modPath {
			return l.modRoot, nil
		}
		if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
			return filepath.Join(l.modRoot, filepath.FromSlash(rest)), nil
		}
	}
	dir := filepath.Join(l.ctxt.GOROOT, "src", filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir, nil
	}
	// Std's own vendored deps (golang.org/x/... under net/http et al).
	vdir := filepath.Join(l.ctxt.GOROOT, "src", "vendor", filepath.FromSlash(path))
	if fi, err := os.Stat(vdir); err == nil && fi.IsDir() {
		return vdir, nil
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q to a directory", path)
}

// Import implements types.Importer: dependency packages load through the
// same canonical Load path as analysis targets, so every package has
// exactly one *types.Package identity regardless of load order.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

func (l *Loader) parseFiles(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", l.ctxt.GOARCH),
		// Collect the first error via Check's return; keep going where
		// possible so one bad file doesn't hide the package.
		Error: func(error) {},
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return pkg, nil
}

// Load type-checks one package for analysis: comments retained, types.Info
// populated, results cached. Dependencies load recursively through Import,
// which delegates back here, so a package type-checked once keeps that one
// identity for the whole run.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle via %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	files, err := l.parseFiles(dir, bp.GoFiles, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	tpkg, err := l.check(path, files, l.info)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Files: files, Types: tpkg, Info: l.info, Fset: l.Fset}
	l.loaded[path] = p
	return p, nil
}

// modulePackages enumerates every package in the loader's module (skipping
// testdata, hidden, and vendor directories), in stable path order.
func (l *Loader) modulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		bp, err := l.ctxt.ImportDir(p, 0)
		if err != nil {
			return nil // no buildable Go files here; keep walking
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.modRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.modPath)
		} else {
			paths = append(paths, l.modPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
