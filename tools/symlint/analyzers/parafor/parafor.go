// Package parafor defines an analyzer for SymProp's parallel closures.
//
// All hot-path parallelism funnels through the execution engine
// (exec.Run plans, and the bare exec.For / exec.Chunks primitives the
// linalg.ParallelFor* shims wrap), whose contract is: the body closure
// owns the half-open chunk [lo, hi) and may write shared state only at
// indices derived from it. The analyzer inspects every closure passed to
// the bare fan-out helpers and every `go func` literal for the race
// classes that contract rules out (exec.Plan literals have their own,
// deeper analyzer: planrace):
//
//   - assignment to a captured variable (racy accumulation — reduce into a
//     per-chunk local and merge after the parallel region);
//   - writes to a captured map (maps are never safe for concurrent use);
//   - writes to a captured slice at an index that cannot vary within the
//     chunk (every worker hits the same element);
//   - field or pointer writes through captured variables;
//   - `go` closures that capture an enclosing loop variable instead of
//     taking it as an argument (defensive under Go >= 1.22 semantics, and
//     keeps closures portable to older toolchains).
//
// Closures that visibly synchronize — calling Lock/RLock on a captured
// sync mutex — are exempt from the write checks, as are statements
// annotated with a justified //symlint:nosync directive.
//
// The analyzer additionally bans direct linalg.ParallelFor* calls from
// kernel packages (internal/kernels, internal/csf, internal/cpd): kernel
// loops must run as exec.Run plans so cancellation, panic capture and
// fault injection stay centralized in the engine.
package parafor

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/symprop/symprop/tools/symlint/analysis"
	"github.com/symprop/symprop/tools/symlint/analyzers/lintutil"
)

// TargetFuncs are the parallel-loop helpers whose body closures are
// checked, matched by function name within a package whose import path
// ends in TargetPkgSuffix.
var (
	TargetFuncs     = map[string]bool{"ParallelFor": true, "ParallelChunks": true}
	TargetPkgSuffix = "internal/linalg"

	// EngineFuncs are the execution engine's bare fan-out primitives
	// (exec.For, exec.Chunks); their body closures obey the same chunk
	// contract as the linalg shims and get the same checks. Closures in
	// an exec.Plan literal's Body and Scratch fields belong to the
	// planrace analyzer, which adds cross-package write facts.
	EngineFuncs     = map[string]bool{"For": true, "Chunks": true}
	EnginePkgSuffix = "internal/exec"

	// KernelPkgSuffixes are packages whose parallel loops must run as
	// engine plans (exec.Run): a direct call to a linalg.ParallelFor*
	// shim there bypasses the engine's cancellation, panic capture and
	// fault sites and is reported.
	KernelPkgSuffixes = []string{"internal/kernels", "internal/csf", "internal/cpd"}
)

var Analyzer = &analysis.Analyzer{
	Name: "parafor",
	Doc: "checks closures passed to linalg.ParallelFor* and go statements for unsynchronized writes to captured state\n\n" +
		"The parallel-body contract: write shared slices only at chunk-derived indices; accumulate scalars per-chunk; never touch captured maps.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if lintutil.IsGenerated(f) {
			continue
		}
		c := &checker{pass: pass, directives: lintutil.Collect(pass.Fset, f, "nosync")}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.walk(fd.Body, nil)
		}
	}
	return nil, nil
}

type checker struct {
	pass       *analysis.Pass
	directives lintutil.Directives
}

// walk finds ParallelFor call sites and go statements, tracking the loop
// variables of enclosing for/range statements for the capture check.
func (c *checker) walk(n ast.Node, loopVars []types.Object) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.ForStmt:
		vars := loopVars
		if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
			for _, lhs := range init.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
						vars = append(vars, obj)
					}
				}
			}
		}
		c.walk(n.Body, vars)
		return
	case *ast.RangeStmt:
		vars := loopVars
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					vars = append(vars, obj)
				}
			}
		}
		c.walk(n.Body, vars)
		return
	case *ast.GoStmt:
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			c.checkLoopCapture(lit, loopVars)
			c.checkClosure(lit, "go closure")
		}
		// Arguments and non-literal callees are walked normally.
		for _, a := range n.Call.Args {
			c.walk(a, loopVars)
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			c.walk(lit.Body, nil)
		}
		return
	case *ast.CallExpr:
		c.checkShimCaller(n)
		if lit := c.parallelBody(n); lit != nil {
			c.checkClosure(lit, "parallel body")
		}
		for _, child := range append([]ast.Expr{n.Fun}, n.Args...) {
			c.walk(child, loopVars)
		}
		return
	case *ast.FuncLit:
		// Loop variables of the enclosing function are not per-iteration
		// hazards inside a nested closure body walk; reset the stack.
		c.walk(n.Body, nil)
		return
	}
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n || child == nil {
			return true
		}
		switch child.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.GoStmt, *ast.CallExpr, *ast.FuncLit, *ast.CompositeLit:
			c.walk(child, loopVars)
			return false
		}
		return true
	})
}

// callee resolves call's target to its *types.Func, nil when it is not a
// plain or selector-qualified function reference.
func (c *checker) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// parallelBody returns the closure argument when call is one of the
// linalg.ParallelFor* shims or the engine's bare primitives exec.For /
// exec.Chunks — in all of them the body closure is the last argument.
func (c *checker) parallelBody(call *ast.CallExpr) *ast.FuncLit {
	fn := c.callee(call)
	if fn == nil {
		return nil
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	shim := TargetFuncs[fn.Name()] && lintutil.PathMatches(pkg.Path(), []string{TargetPkgSuffix})
	engine := EngineFuncs[fn.Name()] && lintutil.PathMatches(pkg.Path(), []string{EnginePkgSuffix})
	if !shim && !engine {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// checkShimCaller reports direct linalg.ParallelFor* calls from kernel
// packages: their loops must run as exec.Run plans so cancellation, panic
// capture and the fault sites stay centralized in the engine.
func (c *checker) checkShimCaller(call *ast.CallExpr) {
	if !lintutil.PathMatches(c.pass.Pkg.Path(), KernelPkgSuffixes) {
		return
	}
	fn := c.callee(call)
	if fn == nil || !TargetFuncs[fn.Name()] {
		return
	}
	if pkg := fn.Pkg(); pkg == nil || !lintutil.PathMatches(pkg.Path(), []string{TargetPkgSuffix}) {
		return
	}
	if _, suppressed := c.directives.Suppressed(c.pass.Fset, call.Pos()); suppressed {
		return
	}
	c.pass.Reportf(call.Pos(),
		"kernel package calls linalg.%s directly; run the loop as an exec.Run plan so the engine owns cancellation, panic capture and fault sites",
		fn.Name())
}

// checkLoopCapture reports loop variables referenced (not redeclared) by a
// go closure.
func (c *checker) checkLoopCapture(lit *ast.FuncLit, loopVars []types.Object) {
	if len(loopVars) == 0 {
		return
	}
	set := make(map[types.Object]bool, len(loopVars))
	for _, v := range loopVars {
		set[v] = true
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil && set[obj] {
			if _, suppressed := c.directives.Suppressed(c.pass.Fset, id.Pos()); !suppressed {
				c.pass.Reportf(id.Pos(),
					"go closure captures loop variable %s; pass it as an argument (go func(%s ...) { ... }(%s))",
					obj.Name(), obj.Name(), obj.Name())
			}
			set[obj] = false // once per variable per closure
		}
		return true
	})
}

// checkClosure applies the shared-write checks to one parallel closure.
func (c *checker) checkClosure(lit *ast.FuncLit, kind string) {
	if c.locksCapturedMutex(lit) {
		return // closure visibly synchronizes; trust it
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				c.checkWrite(lhs, lit, kind)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, lit, kind)
		}
		return true
	})
}

// checkWrite reports lhs when it stores through captured state in a way
// the chunk contract cannot make safe.
func (c *checker) checkWrite(lhs ast.Expr, lit *ast.FuncLit, kind string) {
	if _, suppressed := c.directives.Suppressed(c.pass.Fset, lhs.Pos()); suppressed {
		return
	}
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := c.capturedVar(e, lit); obj != nil {
			c.pass.Reportf(e.Pos(),
				"%s assigns to captured variable %s (data race); accumulate into a chunk-local and merge after the parallel region, or guard with a mutex",
				kind, obj.Name())
		}
	case *ast.IndexExpr:
		root := rootIdent(e.X)
		if root == nil {
			return
		}
		obj := c.capturedVar(root, lit)
		if obj == nil {
			return
		}
		if t := c.pass.TypesInfo.TypeOf(e.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				c.pass.Reportf(e.Pos(),
					"%s writes to captured map %s (maps are never safe for concurrent use); build per-chunk maps and merge, or guard with a mutex",
					kind, obj.Name())
				return
			}
		}
		if !c.indexVaries(e.Index, lit) {
			c.pass.Reportf(e.Pos(),
				"%s writes to captured %s at an index that never varies within the chunk (all workers hit the same element); derive the index from the chunk bounds or a closure-local loop",
				kind, obj.Name())
		}
	case *ast.SelectorExpr:
		if root := rootIdent(e); root != nil {
			if obj := c.capturedVar(root, lit); obj != nil {
				c.pass.Reportf(e.Pos(),
					"%s writes to field %s of captured %s (data race unless workers own disjoint structs); guard with a mutex or restructure per chunk",
					kind, e.Sel.Name, obj.Name())
			}
		}
	case *ast.StarExpr:
		if root := rootIdent(e.X); root != nil {
			if obj := c.capturedVar(root, lit); obj != nil {
				c.pass.Reportf(e.Pos(),
					"%s writes through captured pointer %s (data race); point it at chunk-local state instead", kind, obj.Name())
			}
		}
	}
}

// capturedVar returns the variable object e refers to when it is declared
// outside lit (captured or package-level), nil otherwise.
func (c *checker) capturedVar(e *ast.Ident, lit *ast.FuncLit) types.Object {
	obj, ok := c.pass.TypesInfo.Uses[e].(*types.Var)
	if !ok || obj.Name() == "_" {
		return nil
	}
	if lintutil.DeclaredWithin(obj.Pos(), lit) {
		return nil
	}
	return obj
}

// indexVaries reports whether the index expression can change between
// iterations inside the closure: it references a variable declared within
// the closure, or contains a call (assumed varying — stay quiet when
// unsure).
func (c *checker) indexVaries(idx ast.Expr, lit *ast.FuncLit) bool {
	varies := false
	ast.Inspect(idx, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			varies = true
			return false
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[n]; obj != nil && lintutil.DeclaredWithin(obj.Pos(), lit) {
				varies = true
				return false
			}
		}
		return !varies
	})
	return varies
}

// locksCapturedMutex reports whether the closure calls Lock or RLock from
// package sync anywhere in its body.
func (c *checker) locksCapturedMutex(lit *ast.FuncLit) bool {
	locked := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !locked
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return !locked
		}
		if fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
			if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "sync" {
				locked = true
			}
		}
		return !locked
	})
	return locked
}

// rootIdent peels selectors, indexes, stars and parens down to the base
// identifier of an lvalue chain, e.g. y.Data[i] -> y.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
