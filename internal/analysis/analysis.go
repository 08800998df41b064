// Package analysis is the compile-time enforcement of the determinism
// contract: a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic),
// the five project-specific analyzers, and CheckModule, the one driver that
// cmd/impressionsvet and TestModuleIsClean both run.
//
// Every headline property of this repo — byte-identical images at any
// parallelism, across fleets, and on resume — rests on invariants that
// used to be caught only after the fact by end-to-end digest tests:
//
//   - no wall-clock or ambient-state reads in deterministic packages
//     (detclock); observability time goes through internal/clock;
//   - no unordered map iteration on record/hash/wire-emitting paths
//     (detmap): collect keys and sort first;
//   - all RNG stream derivation through the frozen stats.DeriveSeed* /
//     Fork / SplitStream / SplitN wire contract, never seed arithmetic
//     (rngderive);
//   - integrity/validation errors wrap their typed sentinel with %w so
//     errors.Is and the HTTP status mapping cannot rot (errwrapsentinel);
//   - functions that receive a ctx use it instead of minting
//     context.Background/TODO (ctxflow).
//
// The analyzers run over non-test files only. Escape hatch: a
// `//impressions:nondeterministic <reason>` comment on (or directly above)
// the offending line suppresses a finding, but only outside the
// deterministic packages and only with a non-empty reason — inside them
// the annotation is itself a finding. See README "Determinism contract".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer (which this module cannot vendor)
// so the checks read idiomatically and could be ported to the upstream
// framework without structural change.
type Analyzer struct {
	// Name is the analyzer's identifier, printed after each of its findings
	// and in `impressionsvet -h`.
	Name string
	// Doc is the one-line description shown by `impressionsvet -h`.
	Doc string
	// Run performs the check over one package and reports findings through
	// pass.Report.
	Run func(pass *Pass) error
}

// A Pass presents one package to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test syntax trees, parsed with comments.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// report receives findings; the driver attaches suppression filtering.
	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportUnsuppressable reports a finding the annotation escape hatch cannot
// silence — used for findings *about* annotations themselves.
func (p *Pass) ReportUnsuppressable(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...), unsuppressable: true})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
	// unsuppressable marks findings the //impressions:nondeterministic
	// annotation must not silence (annotation-hygiene findings).
	unsuppressable bool
}

// Position resolves the diagnostic's file position.
func (d Diagnostic) Position(fset *token.FileSet) token.Position { return fset.Position(d.Pos) }

// String renders the go-vet-style "file:line:col: message [analyzer]" form.
func (d Diagnostic) String(fset *token.FileSet) string {
	return fmt.Sprintf("%s: %s [%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
}

// deterministicPkgs lists the package path suffixes (under any module root,
// so analysistest fixtures can mimic them) whose code sits on
// record-emitting paths and must be a pure function of spec and seed.
// Subpackages (e.g. internal/stats/interp) inherit the classification.
var deterministicPkgs = []string{
	"internal/core",
	"internal/namespace",
	"internal/stats",
	"internal/content",
	"internal/constraint",
	"internal/disk",
	"internal/dataset",
	"internal/workload",
	"internal/fsimage",
	"internal/distribute",
	"internal/imgfmt",
}

// clockPkgSuffix is the sanctioned wall-clock boundary; detclock exempts it
// and allows deterministic packages to call into it.
const clockPkgSuffix = "internal/clock"

// IsDeterministicPkg reports whether the import path belongs to the
// deterministic package set the contract protects.
func IsDeterministicPkg(path string) bool {
	for _, det := range deterministicPkgs {
		if path == det || strings.HasSuffix(path, "/"+det) ||
			strings.Contains(path, "/"+det+"/") || strings.HasPrefix(path, det+"/") {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{DetClock, DetMap, RNGDerive, ErrWrapSentinel, CtxFlow}
}

// pkgFunc resolves a selector expression like `time.Now` to its package
// path and name ("time", "Now") when X names an imported package; ok is
// false for method calls and non-package selectors.
func pkgFunc(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// sortDiagnostics orders findings by file position for stable output.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
