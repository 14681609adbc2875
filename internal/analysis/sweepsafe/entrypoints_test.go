package sweepsafe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestEntryPointsMatchEngine keeps sweepEntryPoints in step with the
// sweep engine it polices. Every exported function of internal/cachesim
// whose last parameter is a worker callback taking the point index
// first — func(i int, ...) — must be listed, or the analyzer silently
// skips its callbacks; and every listed name must still be exported
// there.
func TestEntryPointsMatchEngine(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "cachesim", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	exported := map[string]bool{}
	takesWorker := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			exported[fd.Name.Name] = true
			if params := fd.Type.Params.List; len(params) > 0 && isWorkerCallback(params[len(params)-1].Type) {
				takesWorker[fd.Name.Name] = true
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported functions in internal/cachesim")
	}
	for name := range takesWorker {
		if !sweepEntryPoints[name] {
			t.Errorf("cachesim.%s takes a worker callback but is missing from sweepEntryPoints", name)
		}
	}
	for name := range sweepEntryPoints {
		if !exported[name] {
			t.Errorf("sweepEntryPoints lists %s, which internal/cachesim no longer exports", name)
		}
	}
}

// isWorkerCallback reports whether expr is a func type whose first
// parameter is an int — the point index.
func isWorkerCallback(expr ast.Expr) bool {
	ft, ok := expr.(*ast.FuncType)
	if !ok || ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	id, ok := ft.Params.List[0].Type.(*ast.Ident)
	return ok && id.Name == "int"
}
