package fedcleanse_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceDocs are the documents a builder reads before changing the
// code. bench/README.md belongs here too; it stays out until the frozen
// bench/ directory may change with it.
var referenceDocs = []string{
	"DESIGN.md",
	"README.md",
	"ROADMAP.md", // its Open items only: the rest is history
	".claude/skills/verify/SKILL.md",
}

// citingDocs are the Markdown files whose DESIGN.md §N citations must
// resolve, beside every Go, shell, assembly, YAML and Makefile source.
// CHANGES.md is history and cites the numbering of its day; PAPER.md,
// PAPERS.md and SNIPPETS.md quote other sources.
var citingDocs = append([]string{"EXPERIMENTS.md", "bench/README.md"}, referenceDocs...)

// goToolFlags are the go command's own flags, which the documents quote
// in their go test / go build / go run lines.
var goToolFlags = map[string]bool{
	"run": true, "race": true, "short": true, "count": true, "bench": true,
	"benchtime": true, "benchmem": true, "fuzz": true, "fuzztime": true,
	"v": true, "timeout": true, "gcflags": true, "a": true, "o": true, "S": true,
	"deps": true, "export": true,
}

// docAllowlist holds the names a document may cite that no file of the
// tree declares, each with its reason. An entry no document cites fails
// the test, so the list cannot outgrow its use.
var docAllowlist = map[string]string{
	// Standard-library packages: the compiler resolves their names.
	"sync": "standard library", "slog": "standard library", "http": "standard library",
	"math": "standard library", "flag": "standard library",
	"GOAMD64": "toolchain environment variable",
}

var (
	// citeRe finds a DESIGN.md citation — "DESIGN.md §N", "DESIGN §N–M",
	// "`DESIGN.md` §N", "DESIGN.md §N/§M", "DESIGN.md" then "// §N" on
	// the next line — optionally followed by a quoted subsection title.
	citeRe = regexp.MustCompile(`DESIGN(?:\.md)?` + "`?" + `(?:\s|//|#)*((?:§\d+(?:[–-]\d+)?(?:\s*[/,]\s*)?)+)(?:\s+"([^"\n]+)")?`)
	// bareRe finds a section sign before a number anywhere.
	bareRe    = regexp.MustCompile(`§(\d+)(?:[–-](\d+))?`)
	headingRe = regexp.MustCompile(`(?m)^## (\d+)\. `)
	spanRe    = regexp.MustCompile("`([^`]+)`")
	fenceRe   = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	identRe   = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*$`)
	hexRe     = regexp.MustCompile(`^[0-9a-f]{16}$`)
	genericRe = regexp.MustCompile(`\[[\w, |]*\]$`)
	callRe    = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\[[\w, ]*\])?\(`)
	pathRe    = regexp.MustCompile(`^\.?[\w.*/-]+(?::\d+)?$`)
	wordRe    = regexp.MustCompile(`[A-Za-z_]\w*`)
)

// tree is what a document may refer to, read from the module's files.
type tree struct {
	files    map[string]int             // slash path -> line count; directories -> 0
	bases    map[string]bool            // base names of files and directories
	idents   map[string]bool            // every identifier in a Go file
	literals map[string]bool            // every Go string literal
	pkgDecls map[string]map[string]bool // directory base name -> its top-level names
	members  map[string]map[string]bool // type name -> methods, fields, interface methods
	embeds   map[string][]string        // type name -> embedded type names
	anyMemb  map[string]bool            // every method or field name
	flags    map[string]bool            // every flag registered on the default flag set
	targets  map[string]bool            // Makefile targets
	words    map[string]bool            // words of shell, YAML, Makefile and assembly files
	sections map[int]string             // DESIGN.md section number -> its text
	allowed  map[string]bool            // docAllowlist entries some document cites
}

// TestDocReferences keeps the documents builders read in step with the
// tree. In referenceDocs every inline code span that names something must
// resolve: a Go identifier (Name, pkg.Name, Type.Method, pkg.Type.Field, a
// call's callee) must be declared in the module, a qualified one in that
// package or on that type; a -flag must be registered by some command, a
// make target must exist, a path (path:line) must name a file of the tree
// (that long), and a /endpoint must be a string the code serves. Metric
// and span names resolve as the string literals they are in the code.
// Spans that name nothing — expressions, values, prose — are not read.
// Beside that, every DESIGN.md §N citation in the tree must name a section
// DESIGN.md has, and a quoted title after it must occur in that section.
func TestDocReferences(t *testing.T) {
	tr := loadTree(t)
	var bad []string
	for _, doc := range referenceDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		start := 0
		if doc == "ROADMAP.md" {
			start = strings.Index(text, "\n## Open items")
			end := strings.Index(text[start+1:], "\n## ")
			if start < 0 || end < 0 {
				t.Fatal("ROADMAP.md: no Open items section")
			}
			text = text[:start+1+end]
		}
		// Blank fenced blocks out, keeping offsets: they hold shell sessions
		// and layouts, not references.
		masked := fenceRe.ReplaceAllStringFunc(text, func(s string) string {
			return strings.Map(func(r rune) rune {
				if r == '\n' {
					return r
				}
				return ' '
			}, s)
		})
		for _, m := range spanRe.FindAllStringSubmatchIndex(masked, -1) {
			if m[0] < start {
				continue
			}
			span := strings.Join(strings.Fields(masked[m[2]:m[3]]), " ")
			if why := tr.resolve(span); why != "" {
				line := strings.Count(text[:m[0]], "\n") + 1
				bad = append(bad, doc+":"+strconv.Itoa(line)+": `"+span+"`: "+why)
			}
		}
	}
	bad = append(bad, tr.checkCitations(t)...)
	for name := range docAllowlist {
		if !tr.allowed[name] {
			bad = append(bad, "docAllowlist: no document cites "+name+" (delete the entry)")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Fatalf("%d stale document references (fix the document, or the reference):\n%s", len(bad), strings.Join(bad, "\n"))
	}
}

func loadTree(t *testing.T) *tree {
	tr := &tree{
		files: map[string]int{}, bases: map[string]bool{}, idents: map[string]bool{},
		literals: map[string]bool{}, pkgDecls: map[string]map[string]bool{},
		members: map[string]map[string]bool{}, embeds: map[string][]string{},
		anyMemb: map[string]bool{}, flags: map[string]bool{}, targets: map[string]bool{},
		words: map[string]bool{}, sections: map[int]string{}, allowed: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			tr.files[p] = 0
			tr.bases[d.Name()] = true
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		tr.files[p] = bytes.Count(src, []byte("\n")) + 1
		tr.bases[d.Name()] = true
		if strings.Contains(p, "testdata/") {
			return nil
		}
		switch ext := path.Ext(p); {
		case ext == ".go":
			f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			tr.addGo(f, path.Base(path.Dir(p)))
		case ext == ".sh" || ext == ".yml" || ext == ".s" || ext == ".h" || d.Name() == "Makefile":
			for _, w := range wordRe.FindAllString(string(src), -1) {
				tr.words[w] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(mk), -1) {
		tr.targets[m[1]] = true
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	hs := headingRe.FindAllStringSubmatchIndex(string(design), -1)
	for i, h := range hs {
		end := len(design)
		if i+1 < len(hs) {
			end = hs[i+1][0]
		}
		n, _ := strconv.Atoi(string(design[h[2]:h[3]]))
		tr.sections[n] = string(design[h[0]:end])
	}
	return tr
}

// addGo indexes one Go file of the directory whose base name is pkg.
func (tr *tree) addGo(f *ast.File, pkg string) {
	decls := tr.pkgDecls[pkg]
	if decls == nil {
		decls = map[string]bool{}
		tr.pkgDecls[pkg] = decls
	}
	member := func(typ, name string) {
		if tr.members[typ] == nil {
			tr.members[typ] = map[string]bool{}
		}
		tr.members[typ][name] = true
		tr.anyMemb[name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[d.Name.Name] = true
			} else {
				member(receiverType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					decls[s.Name.Name] = true
					var fields []*ast.Field
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields.List
					case *ast.InterfaceType:
						fields = ty.Methods.List
					}
					for _, fld := range fields {
						for _, n := range fld.Names {
							member(s.Name.Name, n.Name)
						}
						if len(fld.Names) == 0 {
							tr.embeds[s.Name.Name] = append(tr.embeds[s.Name.Name], receiverType(fld.Type))
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						decls[n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			tr.idents[n.Name] = true
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				if s, err := strconv.Unquote(n.Value); err == nil {
					tr.literals[s] = true
				}
			}
		case *ast.CallExpr:
			if name, _ := flagCall(n); name != "" {
				tr.flags[name] = true
			}
		}
		return true
	})
}

// receiverType is the base type name of a receiver or embedded field:
// T, *T, T[E], pkg.T.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// resolve returns "" when span names something in the tree or names
// nothing at all, and otherwise why it does not resolve.
func (tr *tree) resolve(span string) string {
	if m := callRe.FindStringSubmatch(span); m != nil {
		return tr.resolveName(m[1])
	}
	words := strings.Fields(span)
	for len(words) > 1 && strings.Contains(words[0], "=") && !strings.HasPrefix(words[0], "-") {
		words = words[1:] // VAR=value go test …
	}
	if len(words) > 1 {
		return tr.resolveCommand(words)
	}
	span = genericRe.ReplaceAllString(strings.TrimSuffix(span, "()"), "")
	switch {
	case strings.HasPrefix(span, "-") && len(span) > 1 && isLetter(span[1]):
		return tr.resolveFlag(span)
	case strings.HasPrefix(span, "/") && !strings.ContainsAny(span, "<{ "):
		return tr.resolveEndpoint(span)
	case hexRe.MatchString(span) || strings.HasPrefix(span, "_") || strings.HasSuffix(span, "_"):
		// A hash value, or a fragment of a name (_test.go, fl_).
	case tr.isPath(span):
		return tr.resolvePath(span)
	case identRe.MatchString(span):
		return tr.resolveName(span)
	}
	return ""
}

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// resolveCommand checks a make, go or command line: its targets, package
// directories, scripts and flags. Quoted arguments are values.
func (tr *tree) resolveCommand(words []string) string {
	cmd := words[0]
	switch {
	case cmd == "make":
		for _, w := range words[1:] {
			if !strings.Contains(w, "=") && !tr.targets[w] {
				return "no make target " + w
			}
		}
		return ""
	case cmd == "go" || strings.HasPrefix(cmd, "-") || tr.isFile("cmd/"+cmd+"/main.go") || tr.isPath(cmd):
		if cmd != "go" && tr.isPath(cmd) {
			if why := tr.resolvePath(cmd); why != "" {
				return why
			}
		}
		args := words[1:]
		if strings.HasPrefix(cmd, "-") {
			args = words // -exp all: the span is the flags
		}
		for _, w := range args {
			switch {
			case strings.HasPrefix(w, "'") || strings.HasPrefix(w, `"`):
			case strings.HasPrefix(w, "-") && len(w) > 1 && isLetter(w[1]):
				if why := tr.resolveFlag(w); why != "" {
					return why
				}
			case strings.HasPrefix(w, "./") && !strings.ContainsAny(w, "'\""):
				if why := tr.resolvePath(strings.TrimSuffix(w, "/...")); why != "" {
					return why
				}
			}
		}
	}
	return ""
}

func (tr *tree) resolveFlag(f string) string {
	name := strings.TrimLeft(f, "-")
	if i := strings.IndexAny(name, "=,)"); i >= 0 {
		name = name[:i]
	}
	if tr.flags[name] || goToolFlags[name] {
		return ""
	}
	return "no command registers -" + name
}

func (tr *tree) resolveEndpoint(p string) string {
	if i := strings.IndexByte(p, '?'); i >= 0 {
		p = p[:i]
	}
	for lit := range tr.literals {
		if strings.Contains(lit, p) {
			return ""
		}
	}
	return "no Go string holds " + p
}

// isPath reports whether s reads as a file path: it has an extension of
// the tree's files, or its first element is a directory of the tree.
func (tr *tree) isPath(s string) bool {
	if !pathRe.MatchString(s) {
		return false
	}
	s = strings.TrimPrefix(s, "./")
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	switch path.Ext(s) {
	case ".go", ".s", ".h", ".sh", ".md", ".yml", ".json", ".mod":
		return true
	}
	first, _, nested := strings.Cut(s, "/")
	return nested && tr.bases[first] && !strings.Contains(first, ".")
}

func (tr *tree) isFile(p string) bool { _, ok := tr.files[p]; return ok }

// resolvePath resolves p, p:line and globs against the tree, from the root
// or as the tail of a path (the documents write nn/mask.go for
// internal/nn/mask.go).
func (tr *tree) resolvePath(p string) string {
	p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
	want := 0
	if i := strings.IndexByte(p, ':'); i >= 0 {
		want, _ = strconv.Atoi(p[i+1:])
		p = p[:i]
	}
	for f, lines := range tr.files {
		ok := f == p || strings.HasSuffix(f, "/"+p)
		if strings.Contains(p, "*") {
			ok, _ = path.Match(p, f)
		}
		if ok && lines >= want {
			return ""
		}
	}
	if want > 0 {
		return "no file " + p + " with " + strconv.Itoa(want) + " lines"
	}
	return "no file " + p
}

// resolveName resolves an identifier or a dotted name.
func (tr *tree) resolveName(name string) string {
	parts := strings.Split(name, ".")
	for _, n := range []string{name, parts[0]} {
		if _, ok := docAllowlist[n]; ok {
			tr.allowed[n] = true
			return ""
		}
	}
	if tr.literals[name] || tr.words[name] || tr.bases[name] {
		return ""
	}
	if len(parts) == 1 {
		if tr.idents[name] || tr.targets[name] {
			return ""
		}
		return "declared nowhere"
	}
	if decls, ok := tr.pkgDecls[parts[0]]; ok {
		switch {
		case !decls[parts[1]]:
			return "package " + parts[0] + " declares no " + parts[1]
		case len(parts) == 2:
			return ""
		}
		return tr.resolveMembers(parts[1], parts[2:])
	}
	if tr.members[parts[0]] != nil || tr.embeds[parts[0]] != nil {
		return tr.resolveMembers(parts[0], parts[1:])
	}
	// A value (template.Replicas, x.F): its members must exist somewhere.
	for _, m := range parts[1:] {
		if !tr.anyMemb[m] {
			return "no method or field " + m
		}
	}
	return ""
}

// resolveMembers walks a chain of member names from type typ; a member of
// an embedded type counts as promoted.
func (tr *tree) resolveMembers(typ string, chain []string) string {
	var has func(typ, m string, depth int) bool
	has = func(typ, m string, depth int) bool {
		if tr.members[typ][m] {
			return true
		}
		for _, e := range tr.embeds[typ] {
			if depth < 3 && has(e, m, depth+1) {
				return true
			}
		}
		return false
	}
	if !has(typ, chain[0], 0) {
		return typ + " has no method or field " + chain[0]
	}
	for _, m := range chain[1:] {
		if !tr.anyMemb[m] {
			return "no method or field " + m
		}
	}
	return ""
}

// checkCitations resolves every DESIGN.md section citation in the tree.
func (tr *tree) checkCitations(t *testing.T) []string {
	var bad []string
	check := func(file string, text string, bare bool) {
		cite := func(off int, n int, title string) {
			sec, ok := tr.sections[n]
			line := strconv.Itoa(strings.Count(text[:off], "\n") + 1)
			switch {
			case !ok:
				bad = append(bad, file+":"+line+": DESIGN.md has no §"+strconv.Itoa(n))
			case title != "" && !strings.Contains(sec, title):
				bad = append(bad, file+":"+line+": DESIGN.md §"+strconv.Itoa(n)+" does not contain \""+title+"\"")
			}
		}
		re := citeRe
		if bare {
			re = bareRe
		}
		for _, m := range re.FindAllStringSubmatchIndex(text, -1) {
			if bare {
				if strings.HasSuffix(strings.TrimSpace(text[max(0, m[0]-12):m[0]]), "PAPER.md") {
					continue
				}
				lo, _ := strconv.Atoi(text[m[2]:m[3]])
				cite(m[0], lo, "")
				if m[4] >= 0 {
					hi, _ := strconv.Atoi(text[m[4]:m[5]])
					cite(m[0], hi, "")
				}
				continue
			}
			title := ""
			if m[4] >= 0 {
				title = text[m[4]:m[5]]
			}
			for _, c := range bareRe.FindAllStringSubmatch(text[m[2]:m[3]], -1) {
				for _, s := range c[1:] {
					if s != "" {
						n, _ := strconv.Atoi(s)
						cite(m[0], n, title)
					}
				}
			}
		}
	}
	for _, doc := range citingDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check(doc, string(src), doc == "DESIGN.md")
	}
	for f := range tr.files {
		if strings.Contains(f, "testdata/") {
			continue
		}
		switch path.Ext(f) {
		case ".go", ".sh", ".yml", ".yaml", ".s", ".h":
		default:
			if path.Base(f) != "Makefile" {
				continue
			}
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		check(f, string(src), true)
	}
	return bad
}
