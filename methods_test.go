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
	"nn.Replicas.Made":               "the borrow tests' only count of the working models a list made",
	"nn.Sequential.Backend":          "the tests' only view of a model's backend",
	"tensor.Of.Equal":                "the tests' tolerance comparison of two tensors, in eight packages",
	"tensor.Of.At":                   "the tests' read of one element by its coordinates",
	"tensor.Of.Set":                  "the tests' write of one element by its coordinates",
	"transport.RemoteClient.LastErr": "the retry tests' only view of the error behind a dropout",
	"obs.SpanRing.Reset":             "isolates the tests that read the process-wide span ring",
	"fl.Checkpointer.WritePartial":   "the durability tests' partial write that returns its own error; a round queues its partials to the writer instead",
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
// stdInterfaces) on its own type or on a type it is promoted into, or is in
// keptMethods. A method only tests call is
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

	declared, uncalled := census(module, used, ifaces)
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

// TestCensusFollowsPromotedMethods runs the census over a fixture in which
// mask's methods are promoted into Layer. Need is kept: Layer implements
// Unit, which declares it. Extra fails: Layer has it too, but no interface
// declares it.
func TestCensusFollowsPromotedMethods(t *testing.T) {
	const src = `package fixture

type Unit interface {
	Name() string
	Need()
}

type mask struct{}

func (*mask) Need()  {}
func (*mask) Extra() {}

type Layer struct{ mask }

func (*Layer) Name() string { return "layer" }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{}).Check(modulePath+"/internal/fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	var ifaces []*types.Interface
	for _, tv := range info.Types {
		if iface, ok := tv.Type.(*types.Interface); ok {
			ifaces = append(ifaces, iface)
		}
	}
	_, uncalled := census([]*types.Package{pkg}, nil, ifaces)
	if want := "fixture.mask.Extra"; len(uncalled) != 1 || uncalled[0] != want {
		t.Fatalf("census flags %v, want [%s]", uncalled, want)
	}
}

// census returns the keys ("<package>.<Type>.<Method>", the package relative
// to internal/) of the exported methods declared under internal/ in module,
// and those of them that used does not hold, no interface of ifaces reaches
// and keptMethods does not name. An interface reaches a method through its
// own type, or through a type of the module it is promoted into.
func census(module []*types.Package, used map[*types.Func]bool, ifaces []*types.Interface) (declared map[string]bool, uncalled []string) {
	var named []*types.Named
	for _, pkg := range module {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	declared = map[string]bool{}
	for _, n := range named {
		rel, ok := strings.CutPrefix(n.Obj().Pkg().Path(), modulePath+"/internal/")
		if !ok {
			continue
		}
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			key := rel + "." + n.Obj().Name() + "." + m.Name()
			declared[key] = true
			if !m.Exported() || used[m] || implementsSome(n, m.Name(), ifaces) || promotedInto(m, named, ifaces) {
				continue
			}
			if _, kept := keptMethods[key]; !kept {
				uncalled = append(uncalled, key)
			}
		}
	}
	return declared, uncalled
}

// promotedInto reports whether method m reaches an interface of ifaces
// through a type of named that embeds m's receiver: the type's method set
// (or its pointer's) resolves m's name to m itself, and the type implements
// an interface that declares the name.
func promotedInto(m *types.Func, named []*types.Named, ifaces []*types.Interface) bool {
	for _, n := range named {
		if obj, _, _ := types.LookupFieldOrMethod(n, true, m.Pkg(), m.Name()); obj == m && implementsSome(n, m.Name(), ifaces) {
			return true
		}
	}
	return false
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
