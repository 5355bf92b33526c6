package fedcleanse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagFiles are the files that register command-line flags: every
// command's main.go and the flag groups the commands share.
var flagFiles = []string{
	"cmd/*/main.go",
	"internal/eval/flags.go",
	"internal/obs/flags.go",
	"internal/profiling/profiling.go",
}

// TestEveryFlagIsRead keeps the commands' flags to what they use: a flag
// registered on the default flag set must have its value read. The pointer
// a flag.T call returns is read when some file dereferences it — the local
// variable that holds it in its own file (*v), the struct field that holds
// it in any of the files (*x.F). A flag.TVar target is read when the
// variable or field is named outside flag calls. A registration whose
// pointer goes anywhere else fails too: the guard cannot follow it. An
// unread flag is deleted, not exempted.
func TestEveryFlagIsRead(t *testing.T) {
	var files []string
	for _, pat := range flagFiles {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("%s matches no file (err %v)", pat, err)
		}
		files = append(files, m...)
	}
	fset := token.NewFileSet()
	type reg struct {
		flag, where string
		read        func() bool
	}
	var regs []reg
	fieldDerefs := map[string]bool{} // F of some *x.F, in any file
	fieldNames := map[string]bool{}  // F of some x.F outside flag calls, in any file
	for _, p := range files {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		localDerefs := map[string]bool{} // v of some *v in this file
		localNames := map[string]bool{}  // v named in this file outside its declaration and flag calls
		declared := map[*ast.Ident]bool{}
		followed := map[*ast.CallExpr]bool{}
		// follow records the registration call makes, its value held in
		// target: a variable of this file or, for a *ast.SelectorExpr, a
		// field.
		follow := func(call *ast.CallExpr, target ast.Expr) {
			name, isVar := flagCall(call)
			if name == "" {
				return
			}
			r := reg{flag: name, where: fset.Position(call.Pos()).String()}
			switch x := target.(type) {
			case *ast.Ident:
				v := x.Name
				r.read = func() bool { return localDerefs[v] }
				if isVar {
					r.read = func() bool { return localNames[v] }
				}
			case *ast.SelectorExpr:
				fld := x.Sel.Name
				r.read = func() bool { return fieldDerefs[fld] }
				if isVar {
					r.read = func() bool { return fieldNames[fld] }
				}
			default:
				return
			}
			followed[call] = true
			regs = append(regs, r)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt: // v := flag.T(…), x.F = flag.T(…)
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE {
						declared[id] = true
					}
					if len(n.Lhs) == len(n.Rhs) {
						if call, ok := n.Rhs[i].(*ast.CallExpr); ok {
							follow(call, lhs)
						}
					}
				}
			case *ast.ValueSpec: // var v = flag.T(…)
				for i, id := range n.Names {
					declared[id] = true
					if len(n.Names) == len(n.Values) {
						if call, ok := n.Values[i].(*ast.CallExpr); ok {
							follow(call, id)
						}
					}
				}
			case *ast.KeyValueExpr: // S{F: flag.T(…)}
				if key, ok := n.Key.(*ast.Ident); ok {
					if call, ok := n.Value.(*ast.CallExpr); ok {
						follow(call, &ast.SelectorExpr{X: ast.NewIdent("_"), Sel: key})
					}
				}
			case *ast.CallExpr: // flag.TVar(&v, …), flag.TVar(&x.F, …)
				if _, isVar := flagCall(n); isVar {
					if amp, ok := n.Args[0].(*ast.UnaryExpr); ok && amp.Op == token.AND {
						follow(n, amp.X)
					}
					return false // the target is written here, not read
				}
			case *ast.StarExpr:
				switch x := n.X.(type) {
				case *ast.Ident:
					localDerefs[x.Name] = true
				case *ast.SelectorExpr:
					fieldDerefs[x.Sel.Name] = true
				}
			case *ast.SelectorExpr:
				fieldNames[n.Sel.Name] = true
			case *ast.Ident:
				if !declared[n] {
					localNames[n.Name] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name, _ := flagCall(call); name != "" && !followed[call] {
					t.Errorf("%s: flag -%s: its value goes where this test cannot follow it", fset.Position(call.Pos()), name)
				}
			}
			return true
		})
	}
	if len(regs) == 0 {
		t.Fatal("no flag registrations found")
	}
	var unread []string
	for _, r := range regs {
		if !r.read() {
			unread = append(unread, "-"+r.flag+" ("+r.where+")")
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Fatalf("%d registered flags are never read (delete them): %s", len(unread), strings.Join(unread, ", "))
	}
}

// flagCall returns the flag name a call registers on the default flag set
// and whether it is a flag.TVar call, whose first argument is the target;
// "" when the call registers no flag.
func flagCall(call *ast.CallExpr) (name string, isVar bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return "", false
	}
	arg := 0
	switch fn := sel.Sel.Name; {
	case fn == "Bool" || fn == "Int" || fn == "Int64" || fn == "Uint" || fn == "Uint64" ||
		fn == "String" || fn == "Float64" || fn == "Duration":
	case strings.HasSuffix(fn, "Var"):
		arg, isVar = 1, true
	default:
		return "", false
	}
	if len(call.Args) <= arg {
		return "", false
	}
	lit, ok := call.Args[arg].(*ast.BasicLit)
	if !ok {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return name, isVar
}
