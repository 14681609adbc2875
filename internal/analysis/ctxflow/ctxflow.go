// Package ctxflow implements the gclint analyzer for context plumbing
// on blocking entry points. The repo's convention is that a blocking
// entry point takes a context.Context parameter — cachesim.Replay and
// cachesim.Sweep do — so anything long-running stays cancellable (the
// fault-tolerant execution layer depends on it). Bare/Ctx twin pairs
// remain only in opt, vsc and hierarchy, whose two forms return
// different types; the analyzer still accepts a twin. It keeps the
// convention from eroding as entry points are added:
//
//   - an exported function or method whose name starts with a blocking
//     prefix (Run, Sweep, Replay, Exact) must either take a
//     context.Context itself or have a sibling <Name>Ctx twin that does;
//   - a function that already receives a context.Context must not
//     manufacture a fresh one with context.Background or context.TODO —
//     that silently detaches the callee from the caller's cancellation;
//   - context.Context must not be stored in a struct field: a stored
//     context outlives the call it scoped and hides the data flow the
//     parameter convention exists to make explicit.
//
// A `//gclint:ctxok` comment suppresses a report: on the `func` line for
// entry points that provably return quickly (accessors that merely
// start with Run), on the call line for deliberate detachment (e.g.
// cleanup that must outlive cancellation), on the field line for the
// rare sanctioned stored context.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"

	"gccache/internal/analysis/framework"
	"gccache/internal/analysis/lintutil"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &framework.Analyzer{
	Name:         "ctxflow",
	Doc:          "checks that blocking entry points take (or have a twin taking) a context.Context, that received contexts are passed down, and that contexts are not stored in structs",
	Run:          run,
	Suppressions: []string{"ctxok"},
}

// blockingPrefixes name the API families that replay traces, sweep
// parameter grids, or solve offline OPT instances — all long-running.
var blockingPrefixes = []string{"Run", "Sweep", "Replay", "Exact"}

func run(pass *framework.Pass) error {
	dirs := pass.Directives()
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				checkEntryPoint(pass, dirs, decl)
				checkDetachedContext(pass, dirs, decl)
			case *ast.GenDecl:
				if decl.Tok == token.TYPE {
					checkStoredContext(pass, dirs, decl)
				}
			}
		}
	}
	return nil
}

// checkEntryPoint enforces the context convention on exported blocking
// entry points.
func checkEntryPoint(pass *framework.Pass, dirs *lintutil.Directives, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !ast.IsExported(name) || strings.HasSuffix(name, "Ctx") || fd.Body == nil {
		return
	}
	if !hasBlockingPrefix(name) {
		return
	}
	if funcTypeTakesCtx(pass.TypesInfo, fd.Type) {
		return
	}
	if twinTakesCtx(pass, fd, name+"Ctx") {
		return
	}
	if dirs.At(fd.Pos(), "ctxok") {
		return
	}
	if c := lintutil.CommentDirective(fd.Doc, "ctxok"); c != nil {
		dirs.MarkUsed(c.Pos(), "ctxok")
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported %s looks like a blocking entry point but neither takes a context.Context nor has a %sCtx twin; add one so callers can cancel",
		name, name)
}

// checkDetachedContext flags context.Background/TODO calls inside
// functions that already receive a context.
func checkDetachedContext(pass *framework.Pass, dirs *lintutil.Directives, fd *ast.FuncDecl) {
	if fd.Body == nil || !funcTypeTakesCtx(pass.TypesInfo, fd.Type) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !lintutil.IsPkgFunc(pass.TypesInfo, call, "context", "Background", "TODO") {
			return true
		}
		if dirs.At(call.Pos(), "ctxok") {
			return true
		}
		fn, _ := lintutil.Callee(pass.TypesInfo, call).(*types.Func)
		pass.Reportf(call.Pos(), "%s already receives a context.Context; pass it down instead of context.%s, which detaches the callee from cancellation",
			fd.Name.Name, fn.Name())
		return true
	})
}

// checkStoredContext flags struct fields of type context.Context.
func checkStoredContext(pass *framework.Pass, dirs *lintutil.Directives, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		stAst, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, fld := range stAst.Fields.List {
			if !isCtxType(pass.TypesInfo.TypeOf(fld.Type)) {
				continue
			}
			if dirs.At(fld.Pos(), "ctxok") {
				continue
			}
			pass.Reportf(fld.Pos(), "struct %s stores a context.Context; pass the context as a parameter through the call chain instead",
				ts.Name.Name)
		}
	}
}

// hasBlockingPrefix reports whether name starts with one of the blocking
// API prefixes at a word boundary: "RunStream" matches, "Runtime" does
// not.
func hasBlockingPrefix(name string) bool {
	for _, p := range blockingPrefixes {
		if !strings.HasPrefix(name, p) {
			continue
		}
		rest := name[len(p):]
		if rest == "" {
			return true
		}
		r := rune(rest[0])
		if unicode.IsUpper(r) || unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

// funcTypeTakesCtx reports whether the declared parameter list includes
// a context.Context.
func funcTypeTakesCtx(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, fld := range ft.Params.List {
		if isCtxType(info.TypeOf(fld.Type)) {
			return true
		}
	}
	return false
}

// twinTakesCtx reports whether a sibling function or method named twin
// exists and takes a context.Context.
func twinTakesCtx(pass *framework.Pass, fd *ast.FuncDecl, twin string) bool {
	if fd.Recv == nil {
		fn, ok := pass.Pkg.Scope().Lookup(twin).(*types.Func)
		return ok && sigTakesCtx(fn)
	}
	// Method: look the twin up on the receiver's named type.
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == twin {
			return sigTakesCtx(m)
		}
	}
	return false
}

func sigTakesCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
