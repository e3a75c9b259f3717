package parser

import (
	"strings"
	"testing"

	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/ast/astprint"
	"slicehide/internal/lang/token"
)

const sample = `
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
    var b: int = 0;
    var sum: int = 0;
    var i: int = a;
    while (i < z) {
        b = 2 * i;
        sum = sum + b;
        i = i + 1;
    }
    if (sum > 100) {
        sum = sum - 100;
    } else {
        sum = sum + g;
    }
    return sum;
}

func main() {
    var s: Stack = new Stack();
    s.arr = new int[16];
    s.push(f(1, 2, 30));
    print(s.pop());
}
`

func TestParseSample(t *testing.T) {
	prog, err := Parse(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Globals) != 1 || prog.Globals[0].Name != "g" {
		t.Errorf("globals: %+v", prog.Globals)
	}
	if len(prog.Classes) != 1 || len(prog.Classes[0].Methods) != 2 || len(prog.Classes[0].Fields) != 2 {
		t.Errorf("classes: %+v", prog.Classes)
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs: got %d", len(prog.Funcs))
	}
	var f *ast.FuncDecl
	for _, fd := range prog.Funcs {
		if fd.Name == "f" {
			f = fd
		}
	}
	if f == nil || len(f.Params) != 3 {
		t.Fatalf("func f: %+v", f)
	}
	if f.Result.String() != "int" {
		t.Errorf("f result: %s", f.Result)
	}
}

func TestRoundTrip(t *testing.T) {
	prog, err := Parse(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	text := astprint.Format(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse printed output: %v\n%s", err, text)
	}
	text2 := astprint.Format(prog2)
	if text != text2 {
		t.Errorf("round-trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestPrecedence(t *testing.T) {
	tests := []struct{ src, want string }{
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
		{"1 - 2 - 3", "1 - 2 - 3"},
		{"1 - (2 - 3)", "1 - (2 - 3)"},
		{"a && b || c", "a && b || c"},
		{"a && (b || c)", "a && (b || c)"},
		{"!a && b", "!a && b"},
		{"-a * b", "-a * b"},
		{"-(a * b)", "-(a * b)"},
		{"a < b == c > d", "a < b == c > d"},
		{"a ? b : c", "a ? b : c"},
		{"x % 2 == 0", "x % 2 == 0"},
	}
	for _, tt := range tests {
		e, err := ParseExpr(tt.src)
		if err != nil {
			t.Errorf("%q: %v", tt.src, err)
			continue
		}
		if got := astprint.ExprString(e); got != tt.want {
			t.Errorf("%q: printed as %q", tt.src, got)
		}
	}
}

func TestOpAssignDesugar(t *testing.T) {
	prog, err := Parse(`func f() { var x: int = 0; x += 2; x++; x--; x *= 3; }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	body := prog.Funcs[0].Body.Stmts
	if len(body) != 5 {
		t.Fatalf("got %d stmts", len(body))
	}
	as, ok := body[1].(*ast.Assign)
	if !ok {
		t.Fatalf("x += 2 not desugared to Assign: %T", body[1])
	}
	bin, ok := as.Rhs.(*ast.Binary)
	if !ok || bin.Op != token.PLUS {
		t.Fatalf("rhs not x + 2: %s", astprint.ExprString(as.Rhs))
	}
	inc := body[2].(*ast.Assign)
	if got := astprint.ExprString(inc.Rhs); got != "x + 1" {
		t.Errorf("x++ rhs: %s", got)
	}
	dec := body[3].(*ast.Assign)
	if got := astprint.ExprString(dec.Rhs); got != "x - 1" {
		t.Errorf("x-- rhs: %s", got)
	}
}

// TestOpAssignTargetWithCallRejected: x op= y and x++ are read as
// x = x op y over one target node, so a call in the target would run twice
// (print(n) below would read 2). The parser refuses such a target and says
// where and why; a call-free target is unaffected.
func TestOpAssignTargetWithCallRejected(t *testing.T) {
	const prog = `var n: int = 0;
func idx(): int { n = n + 1; return 0; }
func main() {
    var a: int[] = new int[1];
    a[idx()] %s;
    print(n);
}`
	for _, c := range []struct{ stmt, want string }{
		{"+= 5", "5:5: += target contains a call or allocation, which it would evaluate twice"},
		{"++", "5:5: ++ target contains a call or allocation, which it would evaluate twice"},
		{"-= 1", "5:5: -= target contains a call or allocation, which it would evaluate twice"},
	} {
		_, err := Parse(strings.Replace(prog, "%s", c.stmt, 1))
		if err == nil || err.Error() != c.want {
			t.Errorf("a[idx()] %s: got error %v, want %q", c.stmt, err, c.want)
		}
	}
	for _, src := range []string{
		`func f(a: int[], i: int) { a[i] += 5; a[i + 1]++; }`,
		`class C { field v: int; } func f(c: C) { c.v *= 2; c.v--; }`,
		`func f(i: int) { var b: int[] = new int[4]; b[i] += 1; }`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	for _, src := range []string{
		`class C { field v: int; } func g(): C { return new C(); } func f() { g().v += 1; }`,
		`func f() { new int[4][0]++; }`,
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "which it would evaluate twice") {
			t.Errorf("%q: got error %v, want the evaluated-twice rejection", src, err)
		}
	}
}

func TestForLoop(t *testing.T) {
	prog, err := Parse(`func f() { for (var i: int = 0; i < 10; i++) { print(i); } }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f, ok := prog.Funcs[0].Body.Stmts[0].(*ast.For)
	if !ok {
		t.Fatalf("not a for: %T", prog.Funcs[0].Body.Stmts[0])
	}
	if f.Init == nil || f.Cond == nil || f.Post == nil {
		t.Fatalf("for parts missing: %+v", f)
	}
	if _, ok := f.Init.(*ast.VarDecl); !ok {
		t.Errorf("init is %T", f.Init)
	}
}

func TestForLoopEmptyParts(t *testing.T) {
	prog, err := Parse(`func f() { for (;;) { break; } }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := prog.Funcs[0].Body.Stmts[0].(*ast.For)
	if f.Init != nil || f.Cond != nil || f.Post != nil {
		t.Fatalf("expected empty parts: %+v", f)
	}
}

func TestElseIfChain(t *testing.T) {
	prog, err := Parse(`func f(x: int): int {
        if (x < 0) { return -1; } else if (x == 0) { return 0; } else { return 1; }
    }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s := prog.Funcs[0].Body.Stmts[0].(*ast.If)
	if s.Else == nil || len(s.Else.Stmts) != 1 {
		t.Fatalf("else: %+v", s.Else)
	}
	if _, ok := s.Else.Stmts[0].(*ast.If); !ok {
		t.Fatalf("else-if not nested: %T", s.Else.Stmts[0])
	}
}

func TestNewArrayNested(t *testing.T) {
	e, err := ParseExpr("new int[10][]")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	na := e.(*ast.NewArray)
	if na.Elem.String() != "int[]" {
		t.Errorf("elem type: %s", na.Elem)
	}
}

func TestArrayTypeSyntax(t *testing.T) {
	prog, err := Parse(`func f(a: int[][], b: float[]) { }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	params := prog.Funcs[0].Params
	if params[0].Type.String() != "int[][]" {
		t.Errorf("param a: %s", params[0].Type)
	}
	if params[1].Type.String() != "float[]" {
		t.Errorf("param b: %s", params[1].Type)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		`func f( { }`,
		`func f() { var ; }`,
		`func f() { if x { } }`,
		`class { }`,
		`func f() { return 1 + ; }`,
		`func f() { x = ; }`,
		`blah`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected syntax error", src)
		}
	}
}

// TestLexicalErrorsFailTheParse: a program whose tokens parse but whose
// text does not lex is an error, reported at the lexer's position.
func TestLexicalErrorsFailTheParse(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`func main() { print(1); } /* open`, "1:27: unterminated block comment"},
		{`func main() { print("a\qb"); }`, "1:24: unknown escape \\q"},
	} {
		_, err := Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestErrorRecoveryFindsMultiple(t *testing.T) {
	src := `
func f() { var x: int = ; }
func g() { y = ; }
`
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected errors")
	}
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(el) < 2 {
		t.Errorf("expected at least 2 errors, got %d: %v", len(el), el)
	}
}

func TestErrorLimit(t *testing.T) {
	// A pathological input must not loop forever or accumulate unbounded errors.
	src := "func f() { " + strings.Repeat("var ; ", 100) + " }"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected errors")
	}
	if el := err.(ErrorList); len(el) > maxErrors {
		t.Errorf("error count %d exceeds cap %d", len(el), maxErrors)
	}
}

func TestMethodCallChain(t *testing.T) {
	e, err := ParseExpr("a.b.c(1).d")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := astprint.ExprString(e); got != "a.b.c(1).d" {
		t.Errorf("printed as %q", got)
	}
}

func TestTernaryNesting(t *testing.T) {
	e, err := ParseExpr("a ? b : c ? d : e")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := e.(*ast.Cond)
	if _, ok := c.F.(*ast.Cond); !ok {
		t.Errorf("ternary should nest right: %s", astprint.ExprString(e))
	}
}

func TestConvertSyntax(t *testing.T) {
	tests := []struct{ src, want string }{
		{"int(x)", "int(x)"},
		{"float(a + b)", "float(a + b)"},
		{"int(float(n) / 2.0)", "int(float(n) / 2.0)"},
	}
	for _, tt := range tests {
		e, err := ParseExpr(tt.src)
		if err != nil {
			t.Errorf("%q: %v", tt.src, err)
			continue
		}
		if _, ok := e.(*ast.Convert); !ok && tt.src[0] != ' ' {
			if _, inner := e.(*ast.Convert); !inner {
				// top-level must be a conversion for these inputs
				t.Errorf("%q parsed as %T", tt.src, e)
			}
		}
		if got := astprint.ExprString(e); got != tt.want {
			t.Errorf("%q printed as %q", tt.src, got)
		}
	}
}

func TestConvertStillParsesTypes(t *testing.T) {
	// int/float remain usable as type names in declarations.
	if _, err := Parse(`func f(a: int, b: float): int { var x: int = int(b); return x + a; }`); err != nil {
		t.Fatal(err)
	}
}

// ParseExpr parses a single expression (used by tests and tools).
func ParseExpr(src string) (ast.Expr, error) {
	p := newParser(src)
	e := p.parseExpr()
	p.expect(token.EOF)
	if len(p.errors) > 0 {
		return e, p.errors
	}
	return e, nil
}
