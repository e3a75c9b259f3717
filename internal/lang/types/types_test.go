package types

import (
	"reflect"
	"slicehide/internal/lang/ast"
	"strings"
	"testing"

	"slicehide/internal/lang/ast/astprint"
	"slicehide/internal/lang/parser"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog)
}

func mustOK(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return info
}

func mustFail(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected type error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not mention %q", err, wantSubstr)
	}
}

func TestBasicOK(t *testing.T) {
	mustOK(t, `
var g: int = 3;
func add(a: int, b: int): int { return a + b; }
func main() {
    var x: int = add(g, 4);
    var f: float = 2.5 * 3.0;
    var b: bool = x > 2 && f < 10.0;
    if (b) { print("yes", x); }
}`)
}

func TestClassOK(t *testing.T) {
	info := mustOK(t, `
class Point {
    field x: int;
    field y: int;
    method move(dx: int, dy: int) { x = x + dx; y = y + dy; }
    method norm2(): int { return x * x + y * y; }
}
func main() {
    var p: Point = new Point();
    p.move(3, 4);
    print(p.norm2(), p.x);
}`)
	if info.Funcs["Point.move"] == nil || info.Funcs["Point.norm2"] == nil {
		t.Error("method signatures missing")
	}
	if info.Classes["Point"] == nil {
		t.Error("class missing")
	}
}

func TestMethodCallsSiblingMethod(t *testing.T) {
	mustOK(t, `
class C {
    field v: int;
    method a(): int { return b() + 1; }
    method b(): int { return v; }
}
func main() { var c: C = new C(); print(c.a()); }`)
}

func TestArraysOK(t *testing.T) {
	mustOK(t, `
func main() {
    var a: int[] = new int[10];
    a[0] = 5;
    var n: int = len(a);
    var m: int[][] = new int[3][];
    m[0] = a;
    print(m[0][0], n);
}`)
}

func TestNullAssignable(t *testing.T) {
	mustOK(t, `
class C { field v: int; }
func main() {
    var c: C = null;
    var a: int[] = null;
    if (c == null && a == null) { print(1); }
}`)
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`func f() { x = 1; }`, "undefined variable"},
		{`func f() { var x: int = true; }`, "cannot initialize"},
		{`func f() { var x: int = 1; var x: int = 2; }`, "redeclared"},
		{`func f(): int { return true; }`, "cannot return"},
		{`func f() { if (1) { } }`, "must be bool"},
		{`func f() { while (2.0) { } }`, "must be bool"},
		{`func f() { var x: int = 1 + true; }`, "numeric"},
		{`func f() { var x: int = 1; var y: float = 2.0; var z: int = x + y; }`, "mismatched"},
		{`func f() { var x: bool = 1 % 2.0 == 0; }`, "%"},
		{`func f() { g(); }`, "undefined function"},
		{`func g(a: int) { } func f() { g(); }`, "expects 1 arguments"},
		{`func g(a: int) { } func f() { g(true); }`, "cannot use bool"},
		{`func f() { var a: int = 1; a[0] = 2; }`, "indexing non-array"},
		{`func f() { var a: int[] = new int[true]; }`, "array size must be int"},
		{`func f() { var a: int[] = new int[3]; a[true] = 1; }`, "index must be int"},
		{`class C { field v: int; } func f() { var c: C = new C(); print(c.w); }`, "no field"},
		{`class C { } func f() { var c: C = new C(); c.m(); }`, "no method"},
		{`func f() { var c: D = null; }`, "undefined class"},
		{`func f() { break; }`, "outside loop"},
		{`func f() { 1 + 2; }`, "must be a call"},
		{`func f() { var b: bool = !3; }`, "requires bool"},
		{`func f() { var x: int = true ? 1 : 2.0; }`, "mismatched conditional"},
		{`class C { field v: int; field v: int; }`, "redeclared"},
		{`func f() { } func f() { }`, "redeclared"},
		{`var g: int; var g: int;`, "redeclared"},
		{`func f(a: int, a: int) { }`, "redeclared"},
		{`func f() { var s: string = "a"; var x: int = len(s); var y: int = len(x); }`, "len requires"},
	}
	for _, c := range cases {
		mustFail(t, c.src, c.want)
	}
}

// TestUndefinedFieldClassReportedOnce: a field's type is resolved at its
// declaration, so however often the field is used, its undefined class is
// one error there, and the uses report nothing.
func TestUndefinedFieldClassReportedOnce(t *testing.T) {
	_, err := check(t, `class C { field f: Nope; method m() { f = null; f = null; f = null; } }`)
	if err == nil || err.Error() != "1:20: undefined class Nope" {
		t.Fatalf("error %v, want exactly 1:20: undefined class Nope", err)
	}
}

func TestShadowingInInnerScope(t *testing.T) {
	mustOK(t, `
func f() {
    var x: int = 1;
    if (x > 0) {
        var x: bool = true;
        if (x) { print(1); }
    }
    x = x + 1;
}`)
}

// TestExprTypes pins what the checker records: the class of every
// field-access object and method-call receiver, whatever shape the operand
// has, and nothing for a field or method of the implicit this.
func TestExprTypes(t *testing.T) {
	info := mustOK(t, `
class A { field v: int; method get(): int { return v; } }
class B { field a: A; field w: int; method peek(): int { return a.v + w; } }
func mk(): A { return new A(); }
func main() {
    var as: A[] = new A[2];
    var b: B = new B();
    var c: bool = true;
    print(mk().v, as[0].v, b.a.v, new A().get(), (c ? new A() : mk()).get());
}`)
	got := map[string]string{}
	for e, cl := range info.Receivers {
		got[astprint.ExprString(e)] = cl.Name
	}
	want := map[string]string{
		"mk()":               "A", // field access on a call result
		"as[0]":              "A", // on an array element
		"a":                  "A", // on a field of this (inside B.peek)
		"b":                  "B",
		"b.a":                "A",
		"new A()":            "A", // method call on a new
		"c ? new A() : mk()": "A", // on a conditional
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("receiver classes:\n got %v\nwant %v", got, want)
	}
}

func TestIsScalar(t *testing.T) {
	if !IsScalar(IntType) || !IsScalar(FloatType) || !IsScalar(BoolType) {
		t.Error("int/float/bool must be scalar")
	}
	if IsScalar(StringType) || IsScalar(VoidType) {
		t.Error("string/void must not be scalar")
	}
	if IsScalar(&Array{Elem: IntType}) {
		t.Error("arrays are not scalar")
	}
	if IsScalar(&Class{Name: "C"}) {
		t.Error("classes are not scalar")
	}
}

func TestStringConcatAndCompare(t *testing.T) {
	mustOK(t, `func f(): string { var s: string = "a" + "b"; if (s < "c") { return s; } return "z"; }`)
}

func TestVoidCallAsStatement(t *testing.T) {
	mustOK(t, `func g() { } func f() { g(); }`)
}

func TestRecursiveFunction(t *testing.T) {
	mustOK(t, `func fib(n: int): int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }`)
}

func TestGlobalInitChecked(t *testing.T) {
	mustFail(t, `var g: int = true;`, "cannot initialize global")
}

// MustCheck panics on a check failure; for tests and embedded corpora.
func MustCheck(prog *ast.Program) *Info {
	info, err := Check(prog)
	if err != nil {
		panic(err)
	}
	return info
}
