// Package planrace defines the analyzer for SymProp's execution-engine
// plan bodies: the Plan/Pool runtime (internal/exec) is only race-free
// when every Body and Scratch closure partitions its writes.
//
// The engine's contract: a Body owns the half-open item range [lo, hi)
// (or, for PerWorker plans, its worker slot) and may write shared
// captured state only at indices derived from that range; per-worker
// mutable state lives in w.Scratch; cross-worker results are merged in
// the serial Finish hook. The analyzer inspects every exec.Plan literal
// and reports, in Body and Scratch closures:
//
//   - assignment to a captured variable (racy accumulation — reduce into
//     per-worker scratch and merge in Finish);
//   - append to a captured slice (append reads and writes the shared
//     header — grow per-worker slices in Scratch instead);
//   - writes to a captured map (maps are never safe for concurrent use);
//   - writes to a captured slice at an index that cannot vary within the
//     worker's range (every worker hits the same element);
//   - field or pointer writes through captured variables;
//   - calls that pass a captured variable to a helper whose write-fact
//     says it writes through that parameter without confining the writes
//     to a caller-supplied index range (see below);
//   - a missing Name field — exec.Run rejects unnamed plans at runtime,
//     so the literal is a guaranteed runtime error caught at lint time.
//
// # Write facts
//
// Plan bodies routinely call into helpers (dense.AxpyCompact, spill
// buffers, linalg's row walks) that do the actual stores. The analyzer
// infers, for every function in the analyzed tree, which
// slice/map/pointer parameters it writes through and whether those
// writes are range-partitioned — confined to indices derived from the
// function's own integer parameters, the way linalg's mulTNRange writes
// only rows [lo, hi). The result is exported as a cross-package fact, so
// when a plan body in internal/kernels hands a *captured* output
// directly to a helper from internal/dense, the driver already knows
// whether that helper scribbles over the whole buffer (reported) or
// stays inside a caller-chosen range (trusted — the engine hands each
// worker disjoint ranges).
//
// Helpers that visibly synchronize (sync Lock/RLock anywhere in the
// body) are treated as internally synchronized and export no
// unpartitioned-write facts; a helper can also be blessed explicitly
// with a doc-comment directive:
//
//	//symlint:partitioned writes are owner-partitioned by the row schedule
//	func scatterOwned(y *linalg.Matrix, ...) { ... }
//
// Closures that visibly synchronize are exempt from the write checks,
// and individual findings are suppressed with a justified
// //symlint:planrace directive on or above the offending line. The
// serial Finish hook is exempt by design: captured-state writes there
// (stats folds, pool returns) are the intended pattern.
package planrace

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/symprop/symprop/tools/symlint/analysis"
	"github.com/symprop/symprop/tools/symlint/analyzers/lintutil"
)

// WriteFact records which parameters a function writes through, exported
// for every function with at least one such write. The receiver is
// parameter index -1.
type WriteFact struct {
	Writes []ParamWrite
}

// AFact marks WriteFact as an analysis fact.
func (*WriteFact) AFact() {}

// ParamWrite describes one written-through parameter.
type ParamWrite struct {
	// Index is the parameter position; -1 is the receiver.
	Index int
	// Unpartitioned is true when at least one write through the
	// parameter is not confined to indices derived from the function's
	// own integer parameters.
	Unpartitioned bool
}

func (f *WriteFact) find(index int) *ParamWrite {
	for i := range f.Writes {
		if f.Writes[i].Index == index {
			return &f.Writes[i]
		}
	}
	return nil
}

var Analyzer = &analysis.Analyzer{
	Name: "planrace",
	Doc: "checks exec.Plan Body/Scratch closures for writes to captured state that the worker-range contract cannot make safe\n\n" +
		"Plan bodies own [lo, hi): write captured slices only at range-derived indices, keep per-worker state in w.Scratch, merge in Finish.",
	Run:       run,
	FactTypes: []analysis.Fact{(*WriteFact)(nil)},
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass}
	// Phase 1: infer and export write facts for every function declared
	// in this package, so later packages (and this one's own plan
	// literals) can query them.
	for _, f := range pass.Files {
		if lintutil.IsGenerated(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.exportWriteFact(f, fd)
		}
	}
	// Phase 2: check every exec.Plan literal.
	for _, f := range pass.Files {
		if lintutil.IsGenerated(f) {
			continue
		}
		c.directives = lintutil.Collect(pass.Fset, f, "planrace")
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !lintutil.IsExecPlanLit(pass.TypesInfo, lit) {
				return true
			}
			c.checkPlan(lit)
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass       *analysis.Pass
	directives lintutil.Directives
}

// checkPlan applies the closure checks to one exec.Plan literal.
func (c *checker) checkPlan(lit *ast.CompositeLit) {
	cb := lintutil.DissectPlanLit(lit)
	if cb.Body != nil {
		c.checkClosure(cb.Body, "plan body")
	}
	if cb.Scratch != nil {
		c.checkClosure(cb.Scratch, "plan scratch")
	}
	if !cb.Named {
		if _, suppressed := c.directives.Suppressed(c.pass.Fset, lit.Pos()); !suppressed {
			c.pass.Reportf(lit.Pos(),
				"exec.Plan literal has no Name field; exec.Run rejects unnamed plans (the name keys fault sites, panic attribution, and per-plan metrics)")
		}
	}
}

// checkClosure applies the captured-write and write-fact checks to one
// concurrent plan callback.
func (c *checker) checkClosure(lit *ast.FuncLit, kind string) {
	if lintutil.LocksSyncMutex(c.pass.TypesInfo, lit.Body) {
		return // closure visibly synchronizes; trust it
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				c.checkWrite(lhs, rhs, lit, kind)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, nil, lit, kind)
		case *ast.CallExpr:
			c.checkCall(n, lit, kind)
		}
		return true
	})
}

// checkWrite reports lhs when it stores through captured state in a way
// the worker-range contract cannot make safe.
func (c *checker) checkWrite(lhs, rhs ast.Expr, lit *ast.FuncLit, kind string) {
	if _, suppressed := c.directives.Suppressed(c.pass.Fset, lhs.Pos()); suppressed {
		return
	}
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := c.capturedVar(e, lit)
		if obj == nil {
			return
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltin(c.pass.TypesInfo, id) {
				c.pass.Reportf(e.Pos(),
					"%s appends to captured slice %s (append reads and writes the shared header: data race); grow a per-worker slice in w.Scratch and merge in Finish",
					kind, obj.Name())
				return
			}
		}
		c.pass.Reportf(e.Pos(),
			"%s assigns to captured variable %s (data race); accumulate into per-worker state (w.Scratch) and merge in the serial Finish hook",
			kind, obj.Name())
	case *ast.IndexExpr:
		root := lintutil.RootIdent(e.X)
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
					"%s writes to captured map %s (maps are never safe for concurrent use); build per-worker maps in w.Scratch and merge in Finish",
					kind, obj.Name())
				return
			}
		}
		if !c.indexVaries(e.Index, lit) {
			c.pass.Reportf(e.Pos(),
				"%s writes to captured %s at an index that never varies within the worker's range (all workers hit the same element); derive the index from [lo, hi) or w.Index",
				kind, obj.Name())
		}
	case *ast.SelectorExpr:
		root := lintutil.RootIdent(e)
		if root == nil {
			return
		}
		if obj := c.capturedVar(root, lit); obj != nil {
			c.pass.Reportf(e.Pos(),
				"%s writes to field %s of captured %s (data race unless workers own disjoint structs); move the state into w.Scratch or restructure per worker",
				kind, e.Sel.Name, obj.Name())
		}
	case *ast.StarExpr:
		if root := lintutil.RootIdent(e.X); root != nil {
			if obj := c.capturedVar(root, lit); obj != nil {
				c.pass.Reportf(e.Pos(),
					"%s writes through captured pointer %s (data race); point it at per-worker state instead", kind, obj.Name())
			}
		}
	}
}

// checkCall reports calls that hand a captured variable to a helper whose
// write-fact says it writes through that parameter unpartitioned.
func (c *checker) checkCall(call *ast.CallExpr, lit *ast.FuncLit, kind string) {
	fn := lintutil.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	var fact WriteFact
	if !c.pass.ImportObjectFact(fn, &fact) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() || len(call.Args) != sig.Params().Len() {
		return // stay quiet on variadic/mismatched shapes
	}
	report := func(arg ast.Expr, obj types.Object) {
		if _, suppressed := c.directives.Suppressed(c.pass.Fset, arg.Pos()); suppressed {
			return
		}
		c.pass.Reportf(arg.Pos(),
			"%s passes captured %s to %s, which writes through it without confining the writes to a caller-supplied range; pass a per-worker buffer or a range-partitioned view",
			kind, obj.Name(), fn.Name())
	}
	for _, pw := range fact.Writes {
		if !pw.Unpartitioned {
			continue
		}
		var arg ast.Expr
		if pw.Index == -1 {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			arg = sel.X
		} else if pw.Index < len(call.Args) {
			arg = call.Args[pw.Index]
		} else {
			continue
		}
		// Only direct identifier/selector chains: an intervening call
		// (y.Row(i)) or index usually narrows the view to something the
		// body derived from its range, so stay quiet.
		if containsCall(arg) {
			continue
		}
		root := lintutil.RootIdent(arg)
		if root == nil {
			continue
		}
		if obj := c.capturedVar(root, lit); obj != nil {
			report(arg, obj)
		}
	}
}

// isBuiltin reports whether id resolves to a predeclared builtin (or to
// nothing at all — unshadowed builtins in broken code).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
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
