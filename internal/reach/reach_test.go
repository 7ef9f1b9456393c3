//go:build reach

// Package reach holds the dead-code gate (`make reach`): every function
// declared in production code must be linked into a shipped binary,
// belong to the module's public API, or carry an allowlist entry with
// its reason. It builds the seven commands, the five examples and
// perfbench with inlining off, reads their symbol tables with
// `go tool nm`, lists the production functions with go/ast and matches
// the two. The linker keeps everything a binary can reach, so an
// unlinked function is one no binary can call.
//
// Run it with `go test -tags reach -count=1 ./internal/reach/`. The
// build tag keeps it out of `go build`, `go vet` and `go test ./...`.
package reach

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const module = "github.com/dynagg/dynagg"

// allow names the production functions no binary links that stay
// anyway, keyed as the gate prints them. Each reason is one of two:
// reached only through public API, or a fixture that other packages'
// tests share. A function only its own package's tests call belongs in
// a _test.go file, not here.
var allow = map[string]string{
	"internal/estimator.base.Aggregates":      "public API: dynagg.Tracker.Aggregates, through the aliased Estimator interface",
	"internal/hiddendb.batchItems":            "public API: Iface.SearchBatch and Session.SearchBatch (perfbench compiles against BatchSearcher)",
	"internal/hiddendb.epochView.K":           "public API: a ShardedIface.NewSession session's backend",
	"internal/hiddendb.epochView.Schema":      "public API: a ShardedIface.NewSession session's backend",
	"internal/hiddendb.epochView.Search":      "public API: a ShardedIface.NewSession session's backend",
	"internal/hiddendb.epochView.SearchBatch": "public API: a ShardedIface.NewSession session's backend",
	"internal/hiddendb.epochView.pin":         "public API: Session.Epoch and a sharded session's SearchBatch",
	"internal/stats.Mean":                     "shared test fixture: internal/estimator's tests average relative errors with it",
	"internal/workload.Boolean":               "shared test fixture: internal/estimator's theory tests draw Boolean databases",
}

// publicPkgs are the module's importable packages: their exported
// functions and exported methods of exported types are public API.
var publicPkgs = map[string]bool{"": true, "webiface": true}

// fn is one function or method declared in production code.
type fn struct {
	key   string   // pkg.Name or pkg.Recv.Name, as the gate prints it
	syms  []string // the linker symbols it may appear as
	pos   string
	pkg   string // relative to the module; "" is the root package
	recv  string
	name  string
	lines int
}

func TestReach(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..")) // the module root
	if err != nil {
		t.Fatal(err)
	}
	linked := linkedSymbols(t, root)
	fns, err := productionFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	public, err := publicSurface(root)
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var dead []string
	deadLines := 0
	for _, f := range fns {
		declared[f.key] = true
		isLinked := false
		for _, s := range f.syms {
			if linked[s] {
				isLinked = true
			}
		}
		isPublic := ast.IsExported(f.name) &&
			(publicPkgs[f.pkg] && (f.recv == "" || ast.IsExported(f.recv)) ||
				f.recv == "" && public.funcs[f.pkg+"."+f.name] ||
				f.recv != "" && public.types[f.pkg+"."+f.recv])
		reason, listed := allow[f.key]
		switch {
		case listed && isLinked:
			t.Errorf("stale allowlist entry %s: it is linked (%s)", f.key, reason)
		case listed && isPublic:
			t.Errorf("stale allowlist entry %s: it is public API already", f.key)
		case !isLinked && !isPublic && !listed:
			dead = append(dead, fmt.Sprintf("%s (%s, %d lines)", f.key, f.pos, f.lines))
			deadLines += f.lines
		}
	}
	for k := range allow {
		if !declared[k] {
			t.Errorf("stale allowlist entry %s: no production function has that name", k)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unlinked: %s", d)
	}
	if len(dead) > 0 {
		t.Errorf("%d production functions (%d lines) are linked into no binary and are not public API: "+
			"delete them, move them into the tests that call them, or allowlist them with a reason",
			len(dead), deadLines)
	}
	t.Logf("%d production functions; %d allowlisted", len(fns), len(allow))
}

// linkedSymbols builds every shipped binary with inlining off, so each
// called function keeps its own symbol, and returns the function symbols
// their tables hold, with type arguments dropped.
func linkedSymbols(t *testing.T, root string) map[string]bool {
	bin := t.TempDir()
	build := func(dir, out string, pkgs ...string) {
		args := append([]string{"build", "-gcflags=all=-l", "-o", out}, pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, b)
		}
	}
	build(root, bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	build(filepath.Join(root, "perfbench"), filepath.Join(bin, "perfbench"), ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 13 {
		t.Fatalf("built %d binaries, want 13 (seven commands, five examples, perfbench)", len(entries))
	}
	syms := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[len(f)-2] != "T" && f[len(f)-2] != "t") {
				continue
			}
			syms[dropTypeArgs(f[len(f)-1])] = true
		}
	}
	return syms
}

// dropTypeArgs removes bracketed type arguments from a symbol, so a
// generic function's instances all read as the function.
func dropTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// productionFuncs lists the functions and methods declared in the
// module's non-test files outside cmd/, examples/ and perfbench/.
func productionFuncs(root string) ([]fn, error) {
	var fns []fn
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch {
			case rel == "cmd", rel == "examples", rel == "perfbench",
				d.Name() == "testdata", rel != "." && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(rel))
		if pkg == "." {
			pkg = ""
		}
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Name.Name == "init" || d.Name.Name == "_" {
				continue
			}
			fns = append(fns, newFn(fset, root, pkg, d))
		}
		return nil
	})
	return fns, err
}

func newFn(fset *token.FileSet, root, pkg string, d *ast.FuncDecl) fn {
	path := module
	if pkg != "" {
		path += "/" + pkg
	}
	prefix := pkg
	if prefix == "" {
		prefix = "dynagg"
	}
	start := fset.Position(d.Pos())
	rel, _ := filepath.Rel(root, start.Filename)
	f := fn{
		pkg:   pkg,
		name:  d.Name.Name,
		pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(rel), start.Line),
		lines: fset.Position(d.End()).Line - start.Line + 1,
	}
	if d.Recv == nil {
		f.key = prefix + "." + d.Name.Name
		f.syms = []string{path + "." + d.Name.Name}
		return f
	}
	typ := d.Recv.List[0].Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	f.recv = typ.(*ast.Ident).Name
	f.key = prefix + "." + f.recv + "." + d.Name.Name
	f.syms = []string{
		path + ".(*" + f.recv + ")." + d.Name.Name,
		path + "." + f.recv + "." + d.Name.Name,
	}
	return f
}

// surface is what dynagg.go re-exports from internal packages: the types
// it aliases (their exported methods are public) and the functions its
// variables alias.
type surface struct {
	types map[string]bool // pkg.Type
	funcs map[string]bool // pkg.Func
}

func publicSurface(root string) (surface, error) {
	s := surface{types: map[string]bool{}, funcs: map[string]bool{}}
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "dynagg.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		return s, err
	}
	imports := map[string]string{}
	for _, im := range file.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		if rel, ok := strings.CutPrefix(p, module+"/"); ok {
			imports[filepath.Base(rel)] = rel
		}
	}
	ref := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || imports[id.Name] == "" {
			return "", false
		}
		return imports[id.Name] + "." + sel.Sel.Name, true
	}
	for _, decl := range file.Decls {
		g, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range g.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if r, ok := ref(sp.Type); ok && sp.Assign.IsValid() {
					s.types[r] = true
				}
			case *ast.ValueSpec:
				if g.Tok != token.VAR {
					continue
				}
				for _, v := range sp.Values {
					if r, ok := ref(v); ok {
						s.funcs[r] = true
					}
				}
			}
		}
	}
	return s, nil
}
