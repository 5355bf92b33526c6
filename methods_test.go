package fedcleanse_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptMethods are the exported methods under internal/ that no non-test
// file calls and no interface reaches, kept on purpose, each with the
// reason. Keys are "<package>.<Type>.<Method>", the package relative to
// internal/.
var keptMethods = map[string]string{
	"nn.Replicas.Made":                     "the borrow tests' only count of the working models a list made",
	"nn.Sequential.Backend":                "the tests' only view of a model's backend",
	"tensor.Of.Equal":                      "the tests' tolerance comparison of two tensors, in eight packages",
	"tensor.Of.At":                         "the tests' read of one element by its coordinates",
	"tensor.Of.Set":                        "the tests' write of one element by its coordinates",
	"transport.RemoteClient.LastErr":       "the retry tests' only view of the error behind a dropout",
	"obs.SpanRing.Reset":                   "isolates the tests that read the process-wide span ring",
	"transport.ClientServer.SetMiddleware": "the fault-injection seam of the chaos tests",
}

// stdInterfaces are the standard-library interfaces through which code the
// module does not contain calls a method of the module.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "ReaderFrom"},
	{"io", "Closer"},
	{"log/slog", "Handler"},
	{"net/http", "Handler"},
	{"net/http", "ResponseWriter"},
}

// TestInternalMethodsHaveCallers is TestInternalFunctionsHaveCallers for
// methods, over type-checked source: every exported method declared in a
// non-test file under internal/ is referenced from a non-test file of the
// module (commands, examples, the benchmark and the facade included),
// implements a method of an interface (one of the module's, or one of
// stdInterfaces), or is in keptMethods. A method only tests call is
// deleted. Standard-library imports come from the build cache's export
// data (go list -export), so the check costs a build of the module, not a
// type-check of the standard library from source.
func TestInternalMethodsHaveCallers(t *testing.T) {
	pkgs := listPackages(t)
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	fromExport := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return fromExport.Import(path)
	})

	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	var module []*types.Package
	for _, p := range pkgs { // dependencies first
		if p.Standard || !strings.HasPrefix(p.ImportPath, modulePath) {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		module = append(module, pkg)
	}

	used := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	var ifaces []*types.Interface
	for _, tv := range info.Types { // the module's interface literals, declared or anonymous
		if iface, ok := tv.Type.(*types.Interface); ok {
			ifaces = append(ifaces, iface)
		}
	}
	for _, s := range stdInterfaces {
		if s.pkg == "" {
			ifaces = append(ifaces, types.Universe.Lookup(s.name).Type().Underlying().(*types.Interface))
			continue
		}
		p, err := imp.Import(s.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(s.name).Type().Underlying().(*types.Interface))
	}

	declared := map[string]bool{}
	var uncalled []string
	for _, pkg := range module {
		rel, ok := strings.CutPrefix(pkg.Path(), modulePath+"/internal/")
		if !ok {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				key := rel + "." + tn.Name() + "." + m.Name()
				declared[key] = true
				if !m.Exported() || used[m] || implementsSome(named, m.Name(), ifaces) {
					continue
				}
				if _, kept := keptMethods[key]; !kept {
					uncalled = append(uncalled, key)
				}
			}
		}
	}
	for key := range keptMethods {
		if !declared[key] {
			t.Errorf("keptMethods names %s, which is not declared", key)
		}
	}
	if len(uncalled) > 0 {
		sort.Strings(uncalled)
		t.Fatalf("%d exported methods under internal/ have no caller outside tests and implement no interface (delete them, or add them to keptMethods with a reason): %s",
			len(uncalled), strings.Join(uncalled, ", "))
	}
}

// implementsSome reports whether named, or a pointer to it, implements an
// interface of ifaces that has a method called method. A generic type is
// checked as declared, which finds the interfaces whose methods do not
// mention its type parameters (fmt.Stringer for tensor.Of).
func implementsSome(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if !declaresMethod(iface, method) {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// declaresMethod reports whether iface's method set has a method called
// name.
func declaresMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// listedPackage is the part of go list's JSON the census reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// listPackages returns the module's packages and everything they import,
// dependencies first, each with its export data file in the build cache.
func listPackages(t *testing.T) []listedPackage {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
