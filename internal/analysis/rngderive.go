package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// RNGDerive enforces the RNG stream-derivation discipline, module-wide.
//
// Child streams must be pure functions of (parent seed, stable key) through
// the frozen wire contract — stats.DeriveSeed / DeriveSeedKey /
// DeriveSeedIndex, or the RNG methods Fork / SplitStream / SplitN.
// Ad-hoc arithmetic on raw seeds (`seed+i`, `seed^shard`,
// `seed*31+worker`) produces correlated lagged streams, breaks the
// cross-process plan wire format, and is invisible to digest tests until a
// collision flips bytes. The analyzer flags any RNG or source constructor
// (stats.NewRNG, math/rand.NewSource, rand.New, rand/v2.NewPCG, ...) whose
// seed argument is arithmetic over a seed-like operand (an identifier or
// field whose name contains "seed", "shard", "worker", or "rank").
var RNGDerive = &Analyzer{
	Name: "rngderive",
	Doc: "flags RNG construction from arithmetic on raw seeds instead of the " +
		"frozen stats.DeriveSeed*/Fork/SplitStream/SplitN derivation contract",
	Run: runRNGDerive,
}

// rngCtors maps package path -> constructor names whose seed arguments are
// checked. Repo-internal constructors match by path suffix "internal/stats".
var rngCtors = map[string]map[string]bool{
	"math/rand":    {"NewSource": true, "New": true, "Seed": true},
	"math/rand/v2": {"NewPCG": true, "NewChaCha8": true},
}

// statsCtors are the seed-consuming constructors of internal/stats.
var statsCtors = map[string]bool{"NewRNG": true}

// arithmeticOps are the binary operators that constitute ad-hoc seed
// derivation when applied to a seed-like operand.
var arithmeticOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.XOR: true, token.OR: true, token.AND: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
}

func runRNGDerive(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFunc(pass.Info, sel)
			if !ok {
				return true
			}
			ctor := false
			if names, known := rngCtors[pkgPath]; known && names[name] {
				ctor = true
			}
			if isStatsPkg(pkgPath) && statsCtors[name] {
				ctor = true
			}
			if !ctor {
				return true
			}
			for _, arg := range call.Args {
				if expr, op := seedArithmetic(arg); expr != nil {
					pass.Reportf(expr.Pos(),
						"seed derived by arithmetic (%s) feeding %s.%s: derive child streams with stats.DeriveSeed*/Fork/SplitStream/SplitN — the frozen wire contract", op, pkgPath, name)
				}
			}
			return true
		})
	}
	return nil
}

// isStatsPkg matches the repo's internal/stats by path suffix so
// analysistest fixtures (testdata mirrors of internal/stats) resolve the
// same constructors.
func isStatsPkg(path string) bool {
	return path == "internal/stats" || strings.HasSuffix(path, "/internal/stats")
}

// seedArithmetic returns the offending sub-expression when the argument
// contains binary arithmetic over a seed-like operand.
func seedArithmetic(arg ast.Expr) (ast.Expr, token.Token) {
	var bad ast.Expr
	var op token.Token
	ast.Inspect(arg, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			// A call boundary launders the value: DeriveSeed(seed^x, ...) is
			// the contract's own job; splitmix64(seed)+... is its internals.
			return false
		case *ast.BinaryExpr:
			if arithmeticOps[e.Op] && (isSeedLike(e.X) || isSeedLike(e.Y)) {
				bad, op = e, e.Op
				return false
			}
		}
		return true
	})
	return bad, op
}

// isSeedLike reports whether the expression names something that reads like
// a raw seed or stream-partition index.
func isSeedLike(e ast.Expr) bool {
	name := ""
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.CallExpr:
		// seed-bearing conversions like int64(seed)
		if len(x.Args) == 1 {
			return isSeedLike(x.Args[0])
		}
		return false
	case *ast.ParenExpr:
		return isSeedLike(x.X)
	default:
		return false
	}
	lower := strings.ToLower(name)
	for _, kw := range []string{"seed", "shard", "worker", "rank"} {
		if strings.Contains(lower, kw) {
			return true
		}
	}
	return false
}
