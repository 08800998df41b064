package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// isTestFile reports whether the file is a _test.go file. The analyzers
// enforce invariants of shipped generation paths; tests may freely use
// wall-clock, maps, and ad-hoc seeds.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// RunPackage runs the analyzers over one loaded package and returns the
// surviving findings in stable position order. Suppression annotations
// (`//impressions:nondeterministic <reason>`) filter findings here, in one
// place, so every analyzer honors them identically — except inside the
// deterministic packages, where annotations never suppress and detclock
// reports them as findings of their own.
func RunPackage(p *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var files []*ast.File
	fset := p.Fset
	for _, f := range p.Files {
		if !isTestFile(fset, f) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}

	sup := newSuppressions(fset, files)
	honorSuppressions := !IsDeterministicPkg(p.Path)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      p.Types,
			Info:     p.Info,
			report: func(d Diagnostic) {
				if !d.unsuppressable && honorSuppressions && sup.covers(d.Pos) {
					return
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	sortDiagnostics(fset, diags)
	return diags, nil
}

// CheckModule is the determinism-contract check behind cmd/impressionsvet
// and TestModuleIsClean: it loads every package of the module containing
// dir from source, runs All() over each, and returns the findings rendered
// as "file:line:col: message [analyzer]" in package then position order,
// with the import paths of the packages it checked.
func CheckModule(dir string) (findings, pkgs []string, err error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	l := newLoader()
	l.modRoot, l.modPath = root, modPath
	if pkgs, err = l.modulePackages(); err != nil {
		return nil, nil, err
	}
	for _, path := range pkgs {
		p, err := l.Load(path)
		if err != nil {
			return nil, nil, err
		}
		diags, err := RunPackage(p, All())
		if err != nil {
			return nil, nil, err
		}
		for _, d := range diags {
			findings = append(findings, d.String(l.Fset))
		}
	}
	return findings, pkgs, nil
}
