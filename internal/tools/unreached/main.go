// Command unreached checks that the shipped binaries run what they ship:
// every function declared in a package that `go list -deps ./cmd/...`
// links must appear in some binary's symbol table, or be named in the
// allowlist (allow.txt beside this file) with the reason it lives. A main
// package's functions must appear in the binary built from it; nm names
// every main package "main", so another binary's symbols cannot vouch for
// them.
//
// It builds each main package under ./cmd with inlining off
// (-gcflags=all=-l, so a function inlined everywhere still shows as a
// symbol), reads the symbols with `go tool nm`, and compares them with the
// function declarations in the non-test files of this module's linked
// packages. Init functions always run and are skipped. Marker methods —
// unexported, empty body, name ending in "Node", the sealed-interface
// markers of the AST and the IR — compile to nothing a binary keeps and
// are exempt by that rule. A generic counts as linked when any of its
// instantiations is: type arguments are dropped from a symbol before it
// is matched.
//
// An allowlisted function that a binary links, or that no longer exists,
// fails the check too, so the list stays exact.
//
// Run from the module root: go run ./internal/tools/unreached.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowPath is the allowlist: one `name reason` line per function kept
// alive by code no binary links, relative to the module root.
const allowPath = "internal/tools/unreached/allow.txt"

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}

// pkg is the part of `go list -json` this tool reads.
type pkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Module     *struct{ Path string }
}

// decl is one function declaration of a linked package.
type decl struct {
	sym   string          // symbol as nm prints it, type arguments dropped
	name  string          // import path within the module, then the function
	in    map[string]bool // the symbols that must hold sym
	pos   string          // file:line
	lines int
}

func run(out io.Writer) error {
	allow, err := readAllow(allowPath)
	if err != nil {
		return err
	}
	mains, err := goList("./cmd/...")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	linked := make(map[string]bool) // normalized symbols of every binary
	seen := make(map[string]bool)   // import paths already declared
	var decls []decl
	for _, m := range mains {
		bin := filepath.Join(tmp, filepath.Base(m.ImportPath))
		if err := command(nil, "go", "build", "-gcflags=all=-l", "-o", bin, m.ImportPath); err != nil {
			return err
		}
		var nm bytes.Buffer
		if err := command(&nm, "go", "tool", "nm", bin); err != nil {
			return err
		}
		own := make(map[string]bool) // this binary's symbols alone
		for _, s := range textSymbols(&nm) {
			linked[s], own[s] = true, true
		}
		deps, err := goList("-deps", m.ImportPath)
		if err != nil {
			return err
		}
		for _, p := range deps {
			if p.Module == nil || p.Module.Path != m.Module.Path || seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			in := linked
			if p.Name == "main" { // only m itself
				in = own
			}
			ds, err := declared(p, strings.TrimPrefix(p.ImportPath, m.Module.Path+"/"), in)
			if err != nil {
				return err
			}
			decls = append(decls, ds...)
		}
	}

	var missing []decl
	used := make(map[string]bool)
	nlinked := 0
	for _, d := range decls {
		switch {
		case d.in[d.sym]:
			nlinked++
		case allow[d.name] != "":
			used[d.name] = true
		default:
			missing = append(missing, d)
		}
	}
	var stale []string
	for name := range allow {
		if !used[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	fmt.Fprintf(out, "unreached: %d functions declared in linked packages (marker methods excluded), %d linked, %d allowlisted\n", len(decls), nlinked, len(used))
	for _, d := range missing {
		fmt.Fprintf(out, "  not linked: %s (%s, %d lines)\n", d.name, d.pos, d.lines)
	}
	for _, name := range stale {
		fmt.Fprintf(out, "  stale allowlist entry: %s (linked, or no longer declared)\n", name)
	}
	if len(missing) > 0 || len(stale) > 0 {
		return fmt.Errorf("%d unlinked function(s) outside the allowlist, %d stale allowlist entr(ies): delete code no binary runs, or move it into a _test.go file", len(missing), len(stale))
	}
	return nil
}

// readAllow reads `name reason...` lines; blank lines and # comments are
// skipped, and every entry must give a reason.
func readAllow(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := make(map[string]string)
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		if allow[name] != "" {
			return nil, fmt.Errorf("%s:%d: %s named twice", path, i+1, name)
		}
		allow[name] = reason
	}
	return allow, nil
}

// goList runs go list -json; under `go run`, "go" is the toolchain that
// runs this tool (its bin directory leads PATH).
func goList(args ...string) ([]pkg, error) {
	var buf bytes.Buffer
	if err := command(&buf, "go", append([]string{"list", "-json"}, args...)...); err != nil {
		return nil, err
	}
	var pkgs []pkg
	for dec := json.NewDecoder(&buf); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 || pkgs[len(pkgs)-1].Module == nil {
		return nil, fmt.Errorf("go list %s: no packages in a module", strings.Join(args, " "))
	}
	return pkgs, nil
}

func command(stdout io.Writer, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return nil
}

// textSymbols returns the code symbols of `go tool nm` output with their
// type arguments dropped, so pkg.(*Of[go.shape.int]).New reads as
// pkg.(*Of).New.
func textSymbols(r io.Reader) []string {
	var syms []string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			syms = append(syms, dropTypeArgs(f[2]))
		}
	}
	return syms
}

// dropTypeArgs removes every bracketed type-argument list from a symbol.
func dropTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// declared lists the function declarations of p's non-test files under
// the symbol names nm gives them, each to be found in the symbols in and
// reported as rel.F, skipping init functions (named init.N and always
// run) and marker methods.
func declared(p pkg, rel string, in map[string]bool) ([]decl, error) {
	prefix := p.ImportPath
	if p.Name == "main" {
		prefix = "main"
	}
	fset := token.NewFileSet()
	var out []decl
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil && fn.Name.Name == "init" || marker(fn) {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			out = append(out, decl{
				sym:   prefix + "." + funcName(fn),
				name:  rel + "." + funcName(fn),
				in:    in,
				pos:   fmt.Sprintf("%s:%d", filepath.Join(filepath.Base(p.Dir), name), start.Line),
				lines: end.Line - start.Line + 1,
			})
		}
	}
	return out, nil
}

// marker reports an unexported method with an empty body whose name ends
// in "Node": the sealed-interface markers of the syntax trees.
func marker(fn *ast.FuncDecl) bool {
	return fn.Recv != nil && !fn.Name.IsExported() && strings.HasSuffix(fn.Name.Name, "Node") &&
		fn.Body != nil && len(fn.Body.List) == 0
}

// funcName spells a declaration the way nm does: F, T.M or (*T).M, with
// a generic receiver's type parameters dropped.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}
