// Tests that need packages importing types (ir, corpus) live in the
// external test package.
package types_test

import (
	"slices"
	"strings"
	"testing"

	"slicehide/internal/corpus"
	"slicehide/internal/ir"
	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/parser"
	"slicehide/internal/lang/types"
)

// TestUsesResolved checks name resolution where it is consumed: lowering
// turns every identifier of a checked program into the ir.Var of the right
// kind — parameter, local, global, or a field of the implicit this.
func TestUsesResolved(t *testing.T) {
	prog := ir.MustCompile(`
var g: int = 1;
class C {
    field fld: int;
    method m(p: int): int { var l: int = p + fld + g; return l; }
}
func main() { var c: C = new C(); print(c.m(2)); }`)
	m := prog.Func("C.m")
	want := map[*ir.Var]ir.VarKind{
		m.Params[0]:                    ir.VarParam,
		m.Locals[0]:                    ir.VarLocal,
		prog.Globals[0].Var:            ir.VarGlobal,
		prog.Classes["C"].Field("fld"): ir.VarField,
	}
	seen := map[*ir.Var]bool{}
	ir.WalkStmts(m.Body, func(s ir.Stmt) bool {
		ir.StmtExprs(s, func(e ir.Expr) {
			ir.WalkExpr(e, func(x ir.Expr) {
				switch x := x.(type) {
				case *ir.VarRef:
					seen[x.Var] = true
				case *ir.FieldExpr:
					if this, ok := x.Obj.(*ir.ThisExpr); !ok || this.Class != "C" {
						t.Errorf("field %s read through %v, want this of C", x.Field, x.Obj)
					}
					seen[x.FieldVar] = true
				}
			})
		})
		return true
	})
	for v, kind := range want {
		if !seen[v] {
			t.Errorf("no use of %s resolves to it", v.Name)
		}
		if v.Kind != kind {
			t.Errorf("%s resolved as %v, want %v", v.Name, v.Kind, kind)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("C.m reads %d variables, want %d", len(seen), len(want))
	}
}

// mentions lists the variables f defines or reads, each once, in first-use
// order, with their kinds: "x/param x$1/local C.g/field".
func mentions(f *ir.Func) string {
	var seen []*ir.Var
	add := func(v *ir.Var) {
		if v != nil && !slices.Contains(seen, v) {
			seen = append(seen, v)
		}
	}
	ir.WalkStmts(f.Body, func(s ir.Stmt) bool {
		add(ir.DefinedVar(s))
		for _, v := range ir.UsedVars(s) {
			add(v)
		}
		return true
	})
	out := make([]string, len(seen))
	for i, v := range seen {
		out[i] = v.String() + "/" + v.Kind.String()
	}
	return strings.Join(out, " ")
}

func names(vs []*ir.Var) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return strings.Join(out, ",")
}

// TestScopeRules runs small programs through types.Check and, when they
// check, ir.Build, and pins both sides of every scope rule: the checker's
// exact error, and the variables lowering creates for the function under
// test (uniquified names, what each use resolves to, and its printed IR).
func TestScopeRules(t *testing.T) {
	cases := []struct {
		name, src string
		err       string // the checker's exact error; "" when src checks
		fn        string // the function whose IR is pinned
		vars      string // its params and locals
		mentions  string // the variables it uses, as mentions renders them
		ir        string // its body, as ir.FormatStmts prints it
	}{{
		name: "sibling blocks declare the same name",
		src:  `func f() { { var x: int = 1; print(x); } { var x: bool = true; print(x); } }`,
		fn:   "f", vars: "params= locals=x,x$1", mentions: "x/local x$1/local",
		ir: "[0] x = 1\n[1] print(x)\n[2] x$1 = true\n[3] print(x$1)\n",
	}, {
		name: "a body local shadows a param",
		src:  `func f(x: int): int { var x: int = x + 1; return x; }`,
		fn:   "f", vars: "params=x locals=x$1", mentions: "x$1/local x/param",
		ir: "[0] x$1 = x + 1\n[1] return x$1\n",
	}, {
		name: "a for-init variable is gone after the loop",
		src:  `func f() { for (var i: int = 0; i < 3; i++) { print(i); } var i: bool = true; print(i); }`,
		fn:   "f", vars: "params= locals=i,i$1", mentions: "i/local i$1/local",
		ir: "[0] i = 0\n[1] while i < 3 {\n    [2] print(i)\n} post {\n    [3] i = i + 1\n}\n[4] i$1 = true\n[5] print(i$1)\n",
	}, {
		name: "a for-init variable is not visible after the loop",
		src:  `func f() { for (var i: int = 0; i < 3; i++) { } print(i); }`,
		err:  "1:55: undefined variable i",
	}, {
		name: "a for body may shadow its init variable",
		src:  `func f() { for (var i: int = 0; i < 3; i++) { var i: bool = true; print(i); } }`,
		fn:   "f", vars: "params= locals=i,i$1", mentions: "i/local i$1/local",
		ir: "[0] i = 0\n[1] while i < 3 {\n    [2] i$1 = true\n    [3] print(i$1)\n} post {\n    [4] i = i + 1\n}\n",
	}, {
		name: "a use after an inner block closes is the outer variable",
		src:  `func f(): int { var x: int = 1; if (x > 0) { var x: bool = true; print(x); } return x + 1; }`,
		fn:   "f", vars: "params= locals=x,x$1", mentions: "x/local x$1/local",
		ir: "[0] x = 1\n[1] if x > 0 {\n    [2] x$1 = true\n    [3] print(x$1)\n}\n[4] return x + 1\n",
	}, {
		name: "a local shadows a field and a global",
		src: `var g: float = 1.5;
class C { field g: bool; method m(): int { var g: int = 2; g = g + 1; return g; } }`,
		fn: "C.m", vars: "params= locals=g", mentions: "g/local",
		ir: "[0] g = 2\n[1] g = g + 1\n[2] return g\n",
	}, {
		name: "a field shadows a global",
		src: `var g: float = 1.5;
class C { field g: bool; method m(): bool { var h: bool = !g; return h; } }`,
		fn: "C.m", vars: "params= locals=h", mentions: "h/local C.g/field",
		ir: "[0] h = !this.g\n[1] return h\n",
	}, {
		name: "a local redeclared in the same scope",
		src:  `func f() { var x: int = 1; var x: int = 2; }`,
		err:  "1:32: local x redeclared in this scope",
	}, {
		name: "a redeclaration is checked against the innermost block only",
		src:  `func f() { var x: int = 1; { var x: int = 2; { var y: int = x; var y: int = 3; } } }`,
		err:  "1:68: local y redeclared in this scope",
	}, {
		name: "a parameter redeclared",
		src:  `func f(a: int, a: int) { }`,
		err:  "1:16: parameter a redeclared",
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := mustParse(c.src)
			info, err := types.Check(prog)
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Fatalf("check: got %v, want %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			f := ir.Build(prog, info).Func(c.fn)
			if got := "params=" + names(f.Params) + " locals=" + names(f.Locals); got != c.vars {
				t.Errorf("vars: got %q, want %q", got, c.vars)
			}
			if got := mentions(f); got != c.mentions {
				t.Errorf("mentions: got %q, want %q", got, c.mentions)
			}
			if got := ir.FormatStmts(f.Body, 0); got != c.ir {
				t.Errorf("IR:\n%s\nwant:\n%s", got, c.ir)
			}
			for _, v := range append(slices.Clone(f.Params), f.Locals...) {
				if got := f.LookupVar(v.Name); got != v {
					t.Errorf("LookupVar(%q) = %v, want the %s declared under that name", v.Name, got, v.Kind)
				}
			}
			if v := f.LookupVar("nosuch"); v != nil {
				t.Errorf("LookupVar(nosuch) = %v", v)
			}
		})
	}
}

// nestedBlocks is a program whose function body holds depth nested empty
// blocks between a declaration and its use.
func nestedBlocks(depth int) string {
	return "func f(p: int) { var x: int = p; " + strings.Repeat("{ ", depth) + strings.Repeat("} ", depth) + "print(x); }"
}

// TestCheckAllocsFlatInBlockDepth: opening and closing a block allocates
// nothing in the checker.
func TestCheckAllocsFlatInBlockDepth(t *testing.T) {
	allocs := func(depth int) float64 {
		prog := mustParse(nestedBlocks(depth))
		return testing.AllocsPerRun(20, func() { types.MustCheck(prog) })
	}
	if one, deep := allocs(1), allocs(64); one != deep {
		t.Errorf("types.Check allocates %v with 1 block, %v with 64 nested", one, deep)
	}
}

// TestBuildAllocsFlatInBlockDepth: opening and closing a block allocates
// nothing in lowering.
func TestBuildAllocsFlatInBlockDepth(t *testing.T) {
	allocs := func(depth int) float64 {
		prog := mustParse(nestedBlocks(depth))
		info := types.MustCheck(prog)
		return testing.AllocsPerRun(20, func() { ir.Build(prog, info) })
	}
	if one, deep := allocs(1), allocs(64); one != deep {
		t.Errorf("ir.Build allocates %v with 1 block, %v with 64 nested", one, deep)
	}
}

// BenchmarkParseCorpus parses one generated corpus program (javac at full
// scale): what lang.parse_ms times for one program.
func BenchmarkParseCorpus(b *testing.B) {
	src := corpus.Generate(corpus.Profiles[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustParse(src)
	}
}

// BenchmarkCheckCorpus parses and checks one generated corpus program
// (javac at full scale): what lang.parse_ms and lang.types_ms time for
// one program.
func BenchmarkCheckCorpus(b *testing.B) {
	src := corpus.Generate(corpus.Profiles[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		types.MustCheck(mustParse(src))
	}
}

// BenchmarkBuildCorpus lowers one parsed and checked corpus program (javac
// at full scale) to IR: what ir.build_ms times for one program.
func BenchmarkBuildCorpus(b *testing.B) {
	prog := mustParse(corpus.Generate(corpus.Profiles[0]))
	info := types.MustCheck(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir.Build(prog, info)
	}
}

// mustParse parses src and panics on error.
func mustParse(src string) *ast.Program {
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}
