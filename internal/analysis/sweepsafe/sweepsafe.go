// Package sweepsafe implements the gclint analyzer that polices
// concurrency shapes around the Sweep engine (internal/cachesim) and the
// experiment harness (internal/experiments). Parallel sweeps must
// communicate only through per-worker state and per-index output slots;
// anything else is a data race or — worse for this repo — a silent
// source of run-to-run nondeterminism. It flags:
//
//   - goroutine bodies (`go func() {...}`) that capture an enclosing
//     loop variable instead of receiving it as an argument;
//   - worker-callback bodies passed to Sweep that write state captured
//     from outside the callback, unless the write lands in a per-index
//     slot (an element indexed by the callback's point-index parameter).
//
// A `//gclint:sharedok` comment on the offending line vouches for writes
// that are externally synchronized (e.g. under a sync.Once or mutex).
// Packages outside the default scope opt in with a file-level
// `//gclint:sweep` comment.
package sweepsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"gccache/internal/analysis/framework"
	"gccache/internal/analysis/lintutil"
)

// Analyzer is the sweepsafe analyzer.
var Analyzer = &framework.Analyzer{
	Name:         "sweepsafe",
	Doc:          "flags loop-variable capture in goroutines and shared-state writes in sweep worker callbacks",
	Run:          run,
	Suppressions: []string{"sharedok"},
}

var sweepPackages = []string{
	"gccache/internal/cachesim",
	"gccache/internal/experiments",
}

// sweepEntryPoints are the engine functions whose final func argument is
// a worker callback with signature fn(i int, ...) — index first.
// TestEntryPointsMatchEngine fails when this set and the exported
// functions of internal/cachesim drift apart.
var sweepEntryPoints = map[string]bool{
	"Sweep": true,
}

func run(pass *framework.Pass) error {
	if !lintutil.PkgInScope(pass, "sweep", sweepPackages...) {
		return nil
	}
	dirs := pass.Directives()
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file) {
			continue
		}
		var loopVars []types.Object
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			if n == nil {
				return
			}
			switch n := n.(type) {
			case *ast.RangeStmt:
				mark := len(loopVars)
				loopVars = append(loopVars, defObjects(pass.TypesInfo, n.Key, n.Value)...)
				walk(n.X)
				walk(n.Body)
				loopVars = loopVars[:mark]
				return
			case *ast.ForStmt:
				mark := len(loopVars)
				if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
					loopVars = append(loopVars, defObjects(pass.TypesInfo, init.Lhs...)...)
				}
				walk(n.Init)
				walk(n.Cond)
				walk(n.Post)
				walk(n.Body)
				loopVars = loopVars[:mark]
				return
			case *ast.GoStmt:
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutine(pass, dirs, fl, loopVars)
				}
			case *ast.CallExpr:
				checkSweepCall(pass, dirs, n)
			}
			for _, c := range directChildren(n) {
				walk(c)
			}
		}
		walk(file)
	}
	return nil
}

// defObjects resolves := defined identifiers to their objects.
func defObjects(info *types.Info, exprs ...ast.Expr) []types.Object {
	var out []types.Object
	for _, e := range exprs {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkGoroutine flags uses of enclosing loop variables inside a `go
// func(){...}` body.
func checkGoroutine(pass *framework.Pass, dirs *lintutil.Directives, fl *ast.FuncLit, loopVars []types.Object) {
	if len(loopVars) == 0 {
		return
	}
	reported := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || reported[obj] {
			return true
		}
		for _, lv := range loopVars {
			if obj == lv && !dirs.At(id.Pos(), "sharedok") {
				reported[obj] = true
				pass.Reportf(id.Pos(), "goroutine captures loop variable %s; pass it to the func literal as an argument", obj.Name())
			}
		}
		return true
	})
}

// checkSweepCall inspects worker callbacks handed to the sweep engine.
func checkSweepCall(pass *framework.Pass, dirs *lintutil.Directives, call *ast.CallExpr) {
	fn, ok := lintutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || !sweepEntryPoints[fn.Name()] {
		return
	}
	if pkg := fn.Pkg(); pkg == nil ||
		(pkg.Path() != "gccache/internal/cachesim" && pkg != pass.Pkg) {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	// The worker callback is the final argument; its first parameter is
	// the point index.
	fl, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	if !ok {
		return
	}
	var indexParam types.Object
	if fields := fl.Type.Params; fields != nil && len(fields.List) > 0 && len(fields.List[0].Names) > 0 {
		indexParam = pass.TypesInfo.Defs[fields.List[0].Names[0]]
	}
	checkWorkerBody(pass, dirs, fn.Name(), fl, indexParam)
}

// checkWorkerBody flags writes to captured state inside a worker
// callback, excepting per-index slots out[i] keyed by the callback's
// index parameter.
func checkWorkerBody(pass *framework.Pass, dirs *lintutil.Directives, engine string, fl *ast.FuncLit, indexParam types.Object) {
	check := func(lhs ast.Expr, pos token.Pos) {
		if dirs.At(pos, "sharedok") {
			return
		}
		root := rootObject(pass.TypesInfo, lhs)
		if root == nil || !lintutil.DeclaredOutside(root, fl.Pos(), fl.End()) {
			return
		}
		// out[i] = ... (or a selector chain through it, like
		// cells[i].stats = ...) with the index derived from the
		// point-index parameter is the engine's sanctioned result slot.
		// Note slices only: concurrent map writes race even on distinct
		// keys, so a map index is never a sanctioned slot.
		if ix := chainIndexExpr(pass.TypesInfo, lhs); ix != nil {
			if indexParam != nil && usesObject(pass.TypesInfo, ix.Index, indexParam) {
				return
			}
			pass.Reportf(pos, "%s worker writes %s at an index not derived from its point-index parameter; workers may race on the same slot",
				engine, exprName(lhs))
			return
		}
		pass.Reportf(pos, "%s worker writes captured variable %s; route results through a per-index slot or per-worker state",
			engine, exprName(lhs))
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			check(n.X, n.Pos())
		}
		return true
	})
}

// chainIndexExpr walks an assignment-target chain (x[i], x[i].f,
// *x[i].f, ...) and returns the outermost slice/array index expression,
// or nil if the chain contains none (or only map indexing, which is
// never safe to write concurrently).
func chainIndexExpr(info *types.Info, e ast.Expr) *ast.IndexExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			if t := info.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return nil
				}
			}
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rootObject resolves the outermost identifier of an assignment target
// chain (x, x.f, x[i], *x) to its object, skipping blank identifiers.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			return info.Uses[x]
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

// usesObject reports whether expr references obj.
func usesObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// directChildren returns n's immediate AST children.
func directChildren(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// exprName renders a compact source form of an assignment target.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprName(e.X)
	default:
		return "variable"
	}
}
