// Package reseed implements the gclint analyzer that keeps randomized
// policies safe to pool. The Sweep engine reuses one cache instance per
// worker across many grid points; a policy holding a generator that
// cannot be re-seeded silently makes results depend on which worker
// served which point. The runtime half of this contract is the
// conformance sweep (Reseed+Reset must equal fresh construction); this
// analyzer enforces the static half:
//
//   - every cache-shaped struct (one with an Access method) holding an
//     rng field must declare a Reseed(int64) method. An rng field is a
//     *math/rand/v2.Rand, or any field whose type, through a pointer,
//     has math/rand.Source's methods Int63() int64 and Seed(int64): a
//     *math/rand.Rand, a rand.Source, or a policy's own generator such
//     as core.GCM's copy of math/rand's stream.
//   - the Reseed body must actually reconstruct the generator: assign
//     the rng field from a math/rand constructor (rand.New(...),
//     rand.NewSource(...)) or from any call passed the seed parameter,
//     or call the field's Seed method.
package reseed

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gccache/internal/analysis/framework"
	"gccache/internal/analysis/lintutil"
)

// Analyzer is the reseed analyzer.
var Analyzer = &framework.Analyzer{
	Name: "reseed",
	Doc:  "requires Reseed(int64) reconstructing the rng on cache structs holding a *rand.Rand or other seedable source",
	Run:  run,
}

func run(pass *framework.Pass) error {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if strings.HasSuffix(pass.Fset.Position(tn.Pos()).Filename, "_test.go") {
			continue // test helpers are not pooled by sweep engines
		}
		randFields := rngFields(st)
		if len(randFields) == 0 || !hasMethod(named, "Access") {
			continue
		}
		checkType(pass, tn, named, randFields)
	}
	return nil
}

// rngFields returns the direct struct fields that hold a generator.
func rngFields(st *types.Struct) []*types.Var {
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); isV2Rand(f.Type()) || isSeedableSource(f.Type()) {
			out = append(out, f)
		}
	}
	return out
}

// isV2Rand reports whether t is *math/rand/v2.Rand, which has no Seed
// method: its source is rebuilt instead.
func isV2Rand(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Rand" && obj.Pkg() != nil && obj.Pkg().Path() == "math/rand/v2"
}

// Signatures of math/rand.Source's methods.
var (
	int64Param = types.NewParam(token.NoPos, nil, "", types.Typ[types.Int64])
	int63Sig   = types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(int64Param), false)
	seedSig    = types.NewSignatureType(nil, nil, nil, types.NewTuple(int64Param), nil, false)
)

// isSeedableSource reports whether t's method set — through a pointer,
// for a non-pointer, non-interface t — has math/rand.Source's
// Int63() int64 and Seed(int64).
func isSeedableSource(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Pointer); !ok && !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	has := func(name string, sig *types.Signature) bool {
		sel := ms.Lookup(nil, name)
		return sel != nil && types.Identical(sel.Type(), sig)
	}
	return has("Int63", int63Sig) && has("Seed", seedSig)
}

// hasMethod reports whether *T (hence also T) has a method of that name,
// including promoted methods.
func hasMethod(named *types.Named, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

func checkType(pass *framework.Pass, tn *types.TypeName, named *types.Named, fields []*types.Var) {
	randFields := make([]string, len(fields))
	for i, f := range fields {
		randFields[i] = f.Name()
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pass.Pkg, "Reseed")
	fn, ok := obj.(*types.Func)
	if !ok {
		typ := types.TypeString(fields[0].Type(), func(p *types.Package) string {
			if p == pass.Pkg {
				return ""
			}
			return p.Name()
		})
		pass.Reportf(tn.Pos(), "%s holds %s field %s but has no Reseed(int64) method; pooled sweep workers cannot restart its coin flips",
			tn.Name(), typ, strings.Join(randFields, ", "))
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 0 ||
		!types.Identical(sig.Params().At(0).Type(), types.Typ[types.Int64]) {
		pass.Reportf(fn.Pos(), "%s.Reseed has signature %s; the Reseeder contract requires Reseed(int64)",
			tn.Name(), types.TypeString(sig, types.RelativeTo(pass.Pkg)))
		return
	}
	if fn.Pkg() != pass.Pkg {
		return // promoted from another package; its home package is checked there
	}
	decl := findMethodDecl(pass, named.Obj().Name(), "Reseed")
	if decl == nil || decl.Body == nil {
		return
	}
	if !reconstructsRNG(pass.TypesInfo, decl, randFields) {
		pass.Reportf(decl.Pos(), "%s.Reseed does not reconstruct the rng: assign %s from rand.New(rand.NewSource(seed)) or another call given the seed (or call its Seed method)",
			tn.Name(), strings.Join(randFields, ", "))
	}
}

// findMethodDecl locates the FuncDecl for typeName's method in the
// pass's files.
func findMethodDecl(pass *framework.Pass, typeName, method string) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != method || len(fd.Recv.List) == 0 {
				continue
			}
			if recvTypeName(fd.Recv.List[0].Type) == typeName {
				return fd
			}
		}
	}
	return nil
}

// recvTypeName extracts the base type name from a receiver type
// expression (T, *T, T[P], *T[P]).
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}

// reconstructsRNG reports whether the Reseed body either assigns one of
// the rand fields from a math/rand constructor call or from a call
// passed the seed parameter, or calls Seed on one of them.
func reconstructsRNG(info *types.Info, decl *ast.FuncDecl, randFields []string) bool {
	var seed types.Object
	if names := decl.Type.Params.List[0].Names; len(names) == 1 {
		seed = info.Defs[names[0]]
	}
	isRandField := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		for _, f := range randFields {
			if sel.Sel.Name == f {
				return true
			}
		}
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !isRandField(lhs) || i >= len(n.Rhs) {
					continue
				}
				// RHS must involve a math/rand constructor somewhere
				// (rand.New(rand.NewSource(seed)), rand.New(src), ...)
				// or a call given the seed (newStream(seed), ...).
				ast.Inspect(n.Rhs[i], func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if isRandConstructor(info, call) || passesSeed(info, call, seed) {
							found = true
						}
					}
					return !found
				})
			}
		case *ast.CallExpr:
			// c.rng.Seed(seed): method Seed on the rand field.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Seed" && isRandField(sel.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// passesSeed reports whether one of call's arguments mentions seed.
func passesSeed(info *types.Info, call *ast.CallExpr, seed types.Object) bool {
	if seed == nil {
		return false
	}
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == seed {
				found = true
			}
			return !found
		})
	}
	return found
}

// isRandConstructor reports whether call invokes a package-level
// math/rand constructor (New, NewSource, NewPCG, NewChaCha8, ...).
func isRandConstructor(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := lintutil.Callee(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "New")
}
