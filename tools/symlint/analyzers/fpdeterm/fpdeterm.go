// Package fpdeterm defines the analyzer guarding SymProp's bit-identity
// determinism contract: for a fixed (tensor, options, workers)
// configuration, every kernel produces bit-identical floats run to run.
// Three things quietly break that contract, and all three are invisible
// to the race detector because they are not races:
//
//   - ranging over a map while accumulating floats or appending to an
//     output slice: Go randomizes map iteration order per run, and float
//     addition does not commute bit-for-bit, so the result depends on
//     the order the runtime happened to pick;
//   - package-level math/rand calls (rand.Float64, rand.Intn, ...): they
//     draw from the global source, whose seed is not under the caller's
//     control — deterministic code threads an explicit seeded
//     rand.New(rand.NewSource(seed));
//   - wall-clock reads (time.Now, time.Since) inside an exec.Plan Body
//     or Scratch closure: plan callbacks are the deterministic compute
//     path, and clock values that leak into control flow or output make
//     the result timing-dependent. (Timing telemetry belongs outside the
//     plan — the engine already measures per-worker busy time.)
//
// The map-range rules apply to the numeric core (import paths ending in
// internal/kernels, internal/tucker, internal/linalg, internal/cpd), where
// output determinism is contractual; the plan-closure clock rule applies
// everywhere a plan literal appears. The sanctioned remediation for map
// iteration is collect-keys-then-sort:
//
//	keys := make([]string, 0, len(m))
//	for k := range m {
//		keys = append(keys, k) // appending the key itself is not flagged
//	}
//	sort.Strings(keys)
//	for _, k := range keys { ... m[k] ... }
//
// Findings are suppressed with a justified //symlint:fpdeterm directive
// on or above the offending line.
package fpdeterm

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/symprop/symprop/tools/symlint/analysis"
	"github.com/symprop/symprop/tools/symlint/analyzers/lintutil"
)

// deterministicPkgs are the import-path suffixes of the numeric core,
// where map-iteration order must never reach float accumulation or
// output layout.
var deterministicPkgs = []string{"internal/kernels", "internal/tucker", "internal/linalg", "internal/cpd"}

// seededConstructors are the math/rand package-level functions that
// construct explicitly-seeded state instead of drawing from the global
// source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "fpdeterm",
	Doc: "checks the bit-identity determinism contract: no map-order-dependent float accumulation or output ordering, no global math/rand, no wall-clock reads in plan callbacks\n\n" +
		"Float addition does not commute bit-for-bit; map iteration order and the global rand source vary run to run.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	inCore := pass.Pkg != nil && lintutil.PathMatches(pass.Pkg.Path(), deterministicPkgs)
	for _, f := range pass.Files {
		if lintutil.IsGenerated(f) {
			continue
		}
		c := &checker{pass: pass, directives: lintutil.Collect(pass.Fset, f, "fpdeterm")}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if inCore {
					c.checkMapRange(n)
				}
			case *ast.CallExpr:
				if inCore {
					c.checkGlobalRand(n)
				}
			case *ast.CompositeLit:
				if lintutil.IsExecPlanLit(pass.TypesInfo, n) {
					cb := lintutil.DissectPlanLit(n)
					if cb.Body != nil {
						c.checkClock(cb.Body, "plan body")
					}
					if cb.Scratch != nil {
						c.checkClock(cb.Scratch, "plan scratch")
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass       *analysis.Pass
	directives lintutil.Directives
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if _, suppressed := c.directives.Suppressed(c.pass.Fset, pos); suppressed {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// checkMapRange reports float accumulation and output appends inside a
// range over a map.
func (c *checker) checkMapRange(rs *ast.RangeStmt) {
	t := c.pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				if c.isFloat(lhs) && c.rootOutside(lhs, rs) {
					c.report(lhs.Pos(),
						"float accumulation inside range over map: iteration order is randomized per run and float %s does not commute bit-for-bit; iterate sorted keys instead", as.Tok)
				}
			}
		case token.ASSIGN:
			for i, lhs := range as.Lhs {
				if len(as.Rhs) != len(as.Lhs) {
					break
				}
				call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
					continue
				}
				if !c.rootOutside(lhs, rs) {
					continue
				}
				// Collecting the keys themselves (to sort afterwards) is
				// the sanctioned remediation, not a finding.
				if len(call.Args) == 2 && c.isRangeKey(call.Args[1], rs) {
					continue
				}
				c.report(lhs.Pos(),
					"append inside range over map fixes the output order to the map's randomized iteration order; collect the keys, sort, then build the output")
			}
		}
		return true
	})
}

// isFloat reports a floating-point (or complex) expression type.
func (c *checker) isFloat(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// rootOutside reports whether the lvalue's base variable is declared
// outside the range statement — writes to loop-local state cannot leak
// iteration order.
func (c *checker) rootOutside(lhs ast.Expr, rs *ast.RangeStmt) bool {
	root := lintutil.RootIdent(lhs)
	if root == nil {
		return false
	}
	obj := c.pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[root]
	}
	return obj != nil && !lintutil.DeclaredWithin(obj.Pos(), rs)
}

// isRangeKey reports whether e is exactly the range statement's key
// variable.
func (c *checker) isRangeKey(e ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := c.pass.TypesInfo.Defs[key]
	if keyObj == nil {
		keyObj = c.pass.TypesInfo.Uses[key]
	}
	return keyObj != nil && c.pass.TypesInfo.Uses[id] == keyObj
}

// checkGlobalRand reports package-level math/rand calls, which draw from
// the global (caller-uncontrolled) source.
func (c *checker) checkGlobalRand(call *ast.CallExpr) {
	fn := lintutil.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods on an explicit *rand.Rand are the sanctioned form
	}
	if seededConstructors[fn.Name()] {
		return
	}
	c.report(call.Pos(),
		"%s.%s draws from the global rand source, whose sequence is not reproducible from the run configuration; thread a seeded rand.New(rand.NewSource(seed)) instead", path, fn.Name())
}

// checkClock reports wall-clock reads inside a plan callback.
func (c *checker) checkClock(lit *ast.FuncLit, kind string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.Callee(c.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		switch fn.Name() {
		case "Now", "Since", "Until":
			c.report(call.Pos(),
				"%s reads the wall clock inside a %s: plan callbacks are the deterministic compute path, and the engine already records per-worker busy time; move timing outside the plan", fn.Name(), kind)
		}
		return true
	})
}
