package fedcleanse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalFunctionsHaveCallers keeps internal/ to what the program
// uses: every exported top-level function declared in a non-test file
// under internal/ must be referenced from some non-test file of the module
// — its own package, another internal package, a command, an example, the
// benchmark or the facade. A function only tests call is deleted, or moved
// into the test file that uses it as a reference. Methods are out of
// scope: an interface the parser cannot see may reach them.
func TestInternalFunctionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{} // "<import path>.<Name>"
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(modulePath, filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(p, "internal"+string(filepath.Separator)) {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					declared[pkg+"."+fd.Name.Name] = true
				}
			}
		}
		collectReferences(f, pkg, used)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for name := range declared {
		if !used[name] {
			uncalled = append(uncalled, strings.TrimPrefix(name, modulePath+"/internal/"))
		}
	}
	if len(uncalled) > 0 {
		sort.Strings(uncalled)
		t.Fatalf("%d exported functions under internal/ have no caller outside tests (delete them, or move a test's reference into its _test.go file): %s",
			len(uncalled), strings.Join(uncalled, ", "))
	}
}

// collectReferences adds to used "<import path>.<Name>" for every module
// package name the file reaches: pkg.Name selectors on the file's imports
// of the module, and bare identifiers of its own package pkg. Declared
// names (functions, methods, fields) and the selected half of other
// selectors (x.Name on a value) are not references.
func collectReferences(f *ast.File, pkg string, used map[string]bool) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if !strings.HasPrefix(p, modulePath) {
			continue
		}
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = p
	}
	skip := map[*ast.Ident]bool{}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
		case *ast.Field:
			for _, name := range n.Names {
				skip[name] = true
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					used[p+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !skip[n] {
				used[pkg+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}
