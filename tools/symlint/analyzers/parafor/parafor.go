// Package parafor defines an analyzer for SymProp's goroutine closures.
//
// Every compute loop runs as an execution-engine plan (exec.Run), whose
// Body and Scratch closures belong to the planrace analyzer. What is left
// outside the engine are the `go` statements of the pool's own workers,
// the job runners and the load generator; the analyzer inspects every
// `go func` literal for the race classes a goroutine closure can hit:
//
//   - assignment to a captured variable (racy accumulation — reduce into a
//     goroutine-local and merge after the join);
//   - writes to a captured map (maps are never safe for concurrent use);
//   - writes to a captured slice at an index that cannot vary within the
//     closure (every goroutine hits the same element);
//   - field or pointer writes through captured variables;
//   - closures that capture an enclosing loop variable instead of taking
//     it as an argument (defensive under Go >= 1.22 semantics, and keeps
//     closures portable to older toolchains).
//
// Closures that visibly synchronize — calling Lock/RLock on a captured
// sync mutex — are exempt from the write checks, as are statements
// annotated with a justified //symlint:nosync directive.
package parafor

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/symprop/symprop/tools/symlint/analysis"
	"github.com/symprop/symprop/tools/symlint/analyzers/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "parafor",
	Doc: "checks go statement closures for unsynchronized writes to captured state and captured loop variables\n\n" +
		"Write shared slices only at indices the goroutine derives itself; accumulate scalars locally; never touch captured maps.",
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

// walk finds go statements, tracking the loop variables of enclosing
// for/range statements for the capture check.
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
			c.checkClosure(lit)
		}
		// Arguments and non-literal callees are walked normally.
		for _, a := range n.Call.Args {
			c.walk(a, loopVars)
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			c.walk(lit.Body, nil)
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
		case *ast.ForStmt, *ast.RangeStmt, *ast.GoStmt, *ast.FuncLit:
			c.walk(child, loopVars)
			return false
		}
		return true
	})
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

// checkClosure applies the shared-write checks to one go closure.
func (c *checker) checkClosure(lit *ast.FuncLit) {
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
				c.checkWrite(lhs, lit)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, lit)
		}
		return true
	})
}

// checkWrite reports lhs when it stores through captured state in a way
// no goroutine-local index can make safe.
func (c *checker) checkWrite(lhs ast.Expr, lit *ast.FuncLit) {
	if _, suppressed := c.directives.Suppressed(c.pass.Fset, lhs.Pos()); suppressed {
		return
	}
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := c.capturedVar(e, lit); obj != nil {
			c.pass.Reportf(e.Pos(),
				"go closure assigns to captured variable %s (data race); accumulate into a goroutine-local and merge after the join, or guard with a mutex",
				obj.Name())
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
					"go closure writes to captured map %s (maps are never safe for concurrent use); build per-goroutine maps and merge, or guard with a mutex",
					obj.Name())
				return
			}
		}
		if !c.indexVaries(e.Index, lit) {
			c.pass.Reportf(e.Pos(),
				"go closure writes to captured %s at an index that never varies within the closure (all goroutines hit the same element); derive the index from an argument or a closure-local loop",
				obj.Name())
		}
	case *ast.SelectorExpr:
		if root := rootIdent(e); root != nil {
			if obj := c.capturedVar(root, lit); obj != nil {
				c.pass.Reportf(e.Pos(),
					"go closure writes to field %s of captured %s (data race unless goroutines own disjoint structs); guard with a mutex or restructure per goroutine",
					e.Sel.Name, obj.Name())
			}
		}
	case *ast.StarExpr:
		if root := rootIdent(e.X); root != nil {
			if obj := c.capturedVar(root, lit); obj != nil {
				c.pass.Reportf(e.Pos(),
					"go closure writes through captured pointer %s (data race); point it at goroutine-local state instead", obj.Name())
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
