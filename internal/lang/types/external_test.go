// Tests that need packages importing types (ir, corpus) live in the
// external test package.
package types_test

import (
	"testing"

	"slicehide/internal/corpus"
	"slicehide/internal/ir"
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

// BenchmarkCheckCorpus parses and checks one generated corpus program
// (javac at full scale): what lang.parse_ms and lang.types_ms time for
// one program.
func BenchmarkCheckCorpus(b *testing.B) {
	src := corpus.Generate(corpus.Profiles[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		types.MustCheck(parser.MustParse(src))
	}
}
