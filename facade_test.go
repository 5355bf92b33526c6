package fedcleanse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path under which callers reach the facade.
const modulePath = "github.com/fedcleanse/fedcleanse"

// TestFacadeNamesHaveCallers keeps the facade to what callers use: every
// name fedcleanse.go declares must appear as fedcleanse.<Name> in
// examples/ or in fedcleanse_test.go. A re-export nothing exercises is
// deleted rather than kept.
func TestFacadeNamesHaveCallers(t *testing.T) {
	declared := facadeNames(t, "fedcleanse.go")
	used := map[string]bool{}
	collectSelectors(t, "fedcleanse_test.go", used)
	err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			collectSelectors(t, path, used)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for _, name := range declared {
		if !used[name] {
			uncalled = append(uncalled, name)
		}
	}
	if len(uncalled) > 0 {
		sort.Strings(uncalled)
		t.Fatalf("%d of %d facade names have no caller in examples/ or fedcleanse_test.go: %s",
			len(uncalled), len(declared), strings.Join(uncalled, ", "))
	}
}

// facadeNames lists the top-level names a file declares.
func facadeNames(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	return names
}

// collectSelectors adds to used every X of a pkg.X selector in the file at
// path, where pkg is the file's local name for the facade import.
func collectSelectors(t *testing.T, path string, used map[string]bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == modulePath {
			local = "fedcleanse"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}
