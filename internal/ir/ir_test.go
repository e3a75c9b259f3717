package ir

import (
	"strings"
	"testing"

	"slicehide/internal/lang/token"
)

// MustCompile is Compile panicking on error, for the programs these tests
// embed (other packages' tests use oracle.MustCompile).
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

const sampleSrc = `
var g: int = 10;

class Stack {
    field arr: int[];
    field top: int;
    method push(x: int) {
        arr[top] = x;
        top = top + 1;
    }
    method pop(): int {
        top = top - 1;
        return arr[top];
    }
}

func f(x: int, y: int, z: int): int {
    var a: int = 3 * x + y;
    var sum: int = 0;
    for (var i: int = a; i < z; i++) {
        sum = sum + 2 * i;
        if (sum > 1000) { break; }
    }
    return sum + g;
}

func main() {
    var s: Stack = new Stack();
    s.arr = new int[16];
    s.push(f(1, 2, 30));
    print(s.pop());
}
`

func TestCompileSample(t *testing.T) {
	p, err := Compile(sampleSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, qn := range []string{"f", "main", "Stack.push", "Stack.pop"} {
		if p.Func(qn) == nil {
			t.Errorf("missing func %s", qn)
		}
	}
	if len(p.Globals) != 1 || p.Globals[0].Var.Name != "g" {
		t.Errorf("globals: %+v", p.Globals)
	}
	if got := ExprString(p.Globals[0].Init); got != "10" {
		t.Errorf("g init: %s", got)
	}
}

func TestForLowering(t *testing.T) {
	p := MustCompile(sampleSrc)
	f := p.Func("f")
	// Body: a=..., sum=0, i=a, while, return.
	if len(f.Body) != 5 {
		t.Fatalf("f body has %d stmts:\n%s", len(f.Body), FormatFunc(f))
	}
	w, ok := f.Body[3].(*WhileStmt)
	if !ok {
		t.Fatalf("stmt 3 is %T", f.Body[3])
	}
	if len(w.Post) != 1 {
		t.Fatalf("post missing: %s", FormatFunc(f))
	}
	if got := ExprString(w.Cond); got != "i < z" {
		t.Errorf("cond: %s", got)
	}
}

func TestContinueGoesToPost(t *testing.T) {
	p := MustCompile(`
func f(n: int): int {
    var sum: int = 0;
    for (var i: int = 0; i < n; i++) {
        if (i % 2 == 0) { continue; }
        sum = sum + i;
    }
    return sum;
}`)
	f := p.Func("f")
	w := f.Body[2].(*WhileStmt)
	foundContinue := false
	WalkStmts(w.Body, func(s Stmt) bool {
		if _, ok := s.(*ContinueStmt); ok {
			foundContinue = true
		}
		return true
	})
	if !foundContinue {
		t.Fatal("continue not preserved")
	}
}

func TestStmtIDsUnique(t *testing.T) {
	p := MustCompile(sampleSrc)
	for _, f := range p.Funcs {
		seen := map[int]bool{}
		WalkStmts(f.Body, func(s Stmt) bool {
			if seen[s.ID()] {
				t.Errorf("%s: duplicate stmt id %d", f.QName(), s.ID())
			}
			seen[s.ID()] = true
			return true
		})
	}
}

func TestShadowedLocalsGetDistinctVars(t *testing.T) {
	p := MustCompile(`
func f(): int {
    var x: int = 1;
    if (x > 0) {
        var x: int = 2;
        print(x);
    }
    return x;
}`)
	f := p.Func("f")
	if len(f.Locals) != 2 {
		t.Fatalf("locals: %d", len(f.Locals))
	}
	if f.Locals[0] == f.Locals[1] || f.Locals[0].Name == f.Locals[1].Name {
		t.Errorf("shadowed locals share identity: %v %v", f.Locals[0], f.Locals[1])
	}
	// The return must reference the outer x.
	ret := f.Body[2].(*ReturnStmt)
	vr := ret.Value.(*VarRef)
	if vr.Var != f.Locals[0] {
		t.Errorf("return references %s, want outer x", vr.Var)
	}
}

func TestImplicitFieldAccess(t *testing.T) {
	p := MustCompile(`
class C {
    field v: int;
    method bump() { v = v + 1; }
}
func main() { var c: C = new C(); c.bump(); }`)
	m := p.Func("C.bump")
	as := m.Body[0].(*AssignStmt)
	ft, ok := as.Lhs.(*FieldTarget)
	if !ok {
		t.Fatalf("lhs is %T", as.Lhs)
	}
	if _, ok := ft.Obj.(*ThisExpr); !ok {
		t.Errorf("obj is %T, want ThisExpr", ft.Obj)
	}
	if ft.FieldVar == nil || ft.FieldVar.Kind != VarField {
		t.Errorf("field var: %+v", ft.FieldVar)
	}
}

func TestSiblingMethodCall(t *testing.T) {
	p := MustCompile(`
class C {
    field v: int;
    method a(): int { return b() + 1; }
    method b(): int { return v; }
}
func main() { var c: C = new C(); print(c.a()); }`)
	m := p.Func("C.a")
	ret := m.Body[0].(*ReturnStmt)
	bin := ret.Value.(*Binary)
	call := bin.X.(*CallExpr)
	if call.Callee != "C.b" {
		t.Errorf("callee: %s", call.Callee)
	}
	if _, ok := call.Recv.(*ThisExpr); !ok {
		t.Errorf("recv: %T", call.Recv)
	}
}

func TestElemsVarShared(t *testing.T) {
	p := MustCompile(`
func f() {
    var a: int[] = new int[4];
    a[0] = 1;
    var x: int = a[0];
    print(x);
}`)
	f := p.Func("f")
	st1 := f.Body[1].(*AssignStmt)
	it := st1.Lhs.(*IndexTarget)
	st2 := f.Body[2].(*AssignStmt)
	ie := st2.Rhs.(*IndexExpr)
	if it.ElemsVar != ie.ElemsVar {
		t.Errorf("elems pseudo-var not shared: %v vs %v", it.ElemsVar, ie.ElemsVar)
	}
	if it.ElemsVar.Kind != VarElems {
		t.Errorf("kind: %v", it.ElemsVar.Kind)
	}
}

func TestHeapVarForComplexBases(t *testing.T) {
	p := MustCompile(`
func f(m: int[][]) {
    m[0][1] = 5;
}`)
	f := p.Func("f")
	as := f.Body[0].(*AssignStmt)
	it := as.Lhs.(*IndexTarget)
	if it.ElemsVar != p.Heap {
		t.Errorf("nested index should use $heap, got %v", it.ElemsVar)
	}
}

func TestUsedAndDefinedVars(t *testing.T) {
	p := MustCompile(`
func f(x: int): int {
    var a: int = x + 1;
    var b: int[] = new int[4];
    b[a] = a * 2;
    return a + b[0];
}`)
	f := p.Func("f")
	def0 := DefinedVar(f.Body[0])
	if def0 == nil || def0.Name != "a" {
		t.Errorf("def of stmt0: %v", def0)
	}
	uses0 := UsedVars(f.Body[0])
	if len(uses0) != 1 || uses0[0].Name != "x" {
		t.Errorf("uses of stmt0: %v", uses0)
	}
	// b[a] = a*2 defines the elems pseudo-var and uses b, a.
	def2 := DefinedVar(f.Body[2])
	if def2 == nil || def2.Kind != VarElems {
		t.Errorf("def of stmt2: %v", def2)
	}
	names := map[string]bool{}
	for _, u := range UsedVars(f.Body[2]) {
		names[u.String()] = true
	}
	if !names["b"] || !names["a"] {
		t.Errorf("uses of stmt2: %v", names)
	}
	// return a + b[0] uses a, b, and b[*].
	names = map[string]bool{}
	for _, u := range UsedVars(f.Body[3]) {
		names[u.String()] = true
	}
	if !names["a"] || !names["b"] || !names["b[*]"] {
		t.Errorf("uses of return: %v", names)
	}
}

func TestHasCall(t *testing.T) {
	p := MustCompile(`
func g(): int { return 1; }
func f(): int {
    var a: int = g() + 2;
    var b: int = a * 3;
    return b;
}`)
	f := p.Func("f")
	if !HasCall(f.Body[0].(*AssignStmt).Rhs) {
		t.Error("g()+2 should report a call")
	}
	if HasCall(f.Body[1].(*AssignStmt).Rhs) {
		t.Error("a*3 should not report a call")
	}
}

func TestCloneExprDeep(t *testing.T) {
	p := MustCompile(`func f(x: int): int { return (x + 1) * (x - 2); }`)
	f := p.Func("f")
	orig := f.Body[0].(*ReturnStmt).Value
	cl := CloneExpr(orig)
	if ExprString(cl) != ExprString(orig) {
		t.Fatalf("clone differs: %s vs %s", ExprString(cl), ExprString(orig))
	}
	// Mutating the clone must not affect the original.
	cl.(*Binary).Op = token.PLUS
	if ExprString(cl) == ExprString(orig) {
		t.Error("clone shares structure with original")
	}
}

// TestMapExprHook: a hook's result replaces the subtree it is handed,
// everything else is copied, and a call's arguments are mapped before its
// receiver.
func TestMapExprHook(t *testing.T) {
	p := MustCompile(`
class C { method m(a: int): int { return a; } }
func f(c: C, x: int, y: int): int { return c.m(x + y) * x; }`)
	orig := p.Func("f").Body[0].(*ReturnStmt).Value
	var order []string
	got := MapExpr(orig, func(e Expr) Expr {
		if v, ok := e.(*VarRef); ok {
			order = append(order, v.Var.Name)
			if v.Var.Name == "x" {
				return Int(7)
			}
		}
		return nil
	})
	if s := ExprString(got); s != "c.m(7 + y) * 7" {
		t.Errorf("mapped %s", s)
	}
	if s := ExprString(orig); s != "c.m(x + y) * x" {
		t.Errorf("original changed: %s", s)
	}
	if s := strings.Join(order, " "); s != "x y c x" {
		t.Errorf("hook order %s, want x y c x", s)
	}
	tg := MapTarget(&IndexTarget{Arr: &VarRef{Var: &Var{Name: "a"}}, I: orig}, func(e Expr) Expr {
		if _, ok := e.(*CallExpr); ok {
			return Int(0)
		}
		return nil
	})
	if s := TargetString(tg); s != "a[0 * x]" {
		t.Errorf("mapped target %s", s)
	}
}

func TestFormatFunc(t *testing.T) {
	p := MustCompile(sampleSrc)
	text := FormatFunc(p.Func("f"))
	for _, want := range []string{"func f(", "while i < z", "return sum + g", "[0]"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted output missing %q:\n%s", want, text)
		}
	}
}

func TestZeroValueInit(t *testing.T) {
	p := MustCompile(`func f() { var x: int; var y: float; var b: bool; var s: string; var a: int[]; print(x, y, b, s, a); }`)
	f := p.Func("f")
	wants := []string{"0", "0.0", "false", `""`, "null"}
	for i, w := range wants {
		as := f.Body[i].(*AssignStmt)
		if got := ExprString(as.Rhs); got != w {
			t.Errorf("zero init %d: got %s, want %s", i, got, w)
		}
	}
}
