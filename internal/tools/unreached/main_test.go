package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestTextSymbolsDropTypeArgs(t *testing.T) {
	nm := `  682580 T slicehide/internal/slab.(*Of[go.shape.*uint8]).Make
  6821c0 T slicehide/internal/slab.(*Of[go.shape.interface { ID() int; Pos() token.Pos }]).New
  6da9e0 T main.main
  4c1000 t slicehide/internal/hrt.keys[go.shape.[]int,go.shape.string]
  5e0000 D slicehide/internal/hrt.table
         U malloc
`
	got := textSymbols(strings.NewReader(nm))
	want := []string{
		"slicehide/internal/slab.(*Of).Make",
		"slicehide/internal/slab.(*Of).New",
		"main.main",
		"slicehide/internal/hrt.keys",
	}
	if !slices.Equal(got, want) {
		t.Errorf("textSymbols = %q, want %q", got, want)
	}
}

func TestFuncNameAndMarkers(t *testing.T) {
	src := `package p
func F() {}
func (T) M() {}
func (*T) N() {}
func (s *Of[T]) New() {}
func (s Pair[K, V]) Key() {}
func (*Call) exprNode() {}
func (*Call) stmtNode() { println() }
func (*Call) ExprNode() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		fn := d.(*ast.FuncDecl)
		name := funcName(fn)
		if marker(fn) {
			name += " marker"
		}
		got = append(got, name)
	}
	want := []string{"F", "T.M", "(*T).N", "(*Of).New", "Pair.Key", "(*Call).exprNode marker", "(*Call).stmtNode", "(*Call).ExprNode"}
	if !slices.Equal(got, want) {
		t.Errorf("names = %q, want %q", got, want)
	}
}

// TestRunChecksEachMainAgainstItsOwnBinary builds a two-binary module in
// which both main packages declare shared but only a links it: b's shared
// must be reported, since nm names both packages "main" and a's symbol
// cannot vouch for it. A library function neither binary calls is
// reported too, and an allowlist entry clears each.
func TestRunChecksEachMainAgainstItsOwnBinary(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":        "module fix\n\ngo 1.22\n",
		"lib/lib.go":    "package lib\n\nfunc Used() int { return 1 }\n\nfunc Unused() int { return 2 }\n",
		"cmd/a/main.go": "package main\n\nimport \"fix/lib\"\n\nfunc main() { println(shared(), lib.Used()) }\n\nfunc shared() int { return 3 }\n",
		"cmd/b/main.go": "package main\n\nfunc main() {}\n\nfunc shared() int { return 4 }\n",
		allowPath:       "# nothing yet\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var out strings.Builder
	if err := run(&out); err == nil || !strings.Contains(err.Error(), "2 unlinked function(s)") {
		t.Fatalf("run = %v, want 2 unlinked functions:\n%s", err, out.String())
	}
	for _, want := range []string{"not linked: cmd/b.shared", "not linked: lib.Unused"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "cmd/a.shared") || strings.Contains(out.String(), "lib.Used") {
		t.Errorf("output reports a linked function:\n%s", out.String())
	}

	allow := "cmd/b.shared kept for the test\nlib.Unused kept for the test\n"
	if err := os.WriteFile(allowPath, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(&out); err != nil {
		t.Fatalf("run failed with both allowlisted: %v\n%s", err, out.String())
	}
}
