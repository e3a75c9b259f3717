package interp_test

import (
	"strings"
	"testing"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
)

// These tests pin the reference semantics on the tree-walking oracle,
// which lives in package oracle so that no shipped binary links it.

// run compiles and executes src, returning the program output.
func run(t *testing.T, src string) string {
	t.Helper()
	out, err := runErr(src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

func runErr(src string) (string, error) {
	p, err := ir.Compile(src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	in := oracle.New(p, interp.Options{Out: &b, MaxSteps: 2_000_000})
	err = in.Run()
	return b.String(), err
}

func TestArithmetic(t *testing.T) {
	out := run(t, `
func main() {
    print(2 + 3 * 4);
    print(10 / 3, 10 % 3);
    print(2.5 * 4.0);
    print(7 - 10);
    print(-5 / 2);
}`)
	want := "14\n3 1\n10.0\n-3\n-2\n"
	if out != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	out := run(t, `
func main() {
    print(1 < 2, 2 <= 2, 3 > 4, 4 >= 5, 1 == 1, 1 != 1);
    print(true && false, true || false, !true);
    print("abc" < "abd", "a" + "b" == "ab");
}`)
	want := "true true false false true false\nfalse true false\ntrue true\n"
	if out != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

func TestShortCircuit(t *testing.T) {
	// Division by zero on the right of && must not be evaluated.
	out := run(t, `
func boom(): bool { var x: int = 1 / 0; return x > 0; }
func main() {
    var a: int = 0;
    if (a != 0 && boom()) { print("bad"); } else { print("ok"); }
    if (a == 0 || boom()) { print("ok2"); }
}`)
	if out != "ok\nok2\n" {
		t.Errorf("got %q", out)
	}
}

func TestLoopsAndControl(t *testing.T) {
	out := run(t, `
func main() {
    var s: int = 0;
    for (var i: int = 0; i < 10; i++) {
        if (i == 7) { break; }
        if (i % 2 == 0) { continue; }
        s = s + i;
    }
    print(s);
    var j: int = 3;
    while (j > 0) { j = j - 1; }
    print(j);
}`)
	if out != "9\n0\n" {
		t.Errorf("got %q", out)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	out := run(t, `
func fib(n: int): int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() { print(fib(15)); }`)
	if out != "610\n" {
		t.Errorf("got %q", out)
	}
}

func TestArrays(t *testing.T) {
	out := run(t, `
func main() {
    var a: int[] = new int[5];
    for (var i: int = 0; i < len(a); i++) { a[i] = i * i; }
    var s: int = 0;
    for (var i: int = 0; i < len(a); i++) { s = s + a[i]; }
    print(s, len(a));
}`)
	if out != "30 5\n" {
		t.Errorf("got %q", out)
	}
}

func TestObjects(t *testing.T) {
	out := run(t, `
class Counter {
    field n: int;
    method bump(): int { n = n + 1; return n; }
}
class Pair {
    field a: Counter;
    field b: Counter;
}
func main() {
    var p: Pair = new Pair();
    p.a = new Counter();
    p.b = p.a;
    p.a.bump();
    print(p.b.bump());
}`)
	// p.a and p.b alias the same Counter.
	if out != "2\n" {
		t.Errorf("got %q", out)
	}
}

func TestMethodSibling(t *testing.T) {
	out := run(t, `
class C {
    field v: int;
    method set(x: int) { v = x; }
    method doubled(): int { return get() * 2; }
    method get(): int { return v; }
}
func main() {
    var c: C = new C();
    c.set(21);
    print(c.doubled());
}`)
	if out != "42\n" {
		t.Errorf("got %q", out)
	}
}

func TestGlobals(t *testing.T) {
	out := run(t, `
var counter: int = 100;
var name: string = "g";
func bump() { counter = counter + 1; }
func main() {
    bump();
    bump();
    print(counter, name);
}`)
	if out != "102 g\n" {
		t.Errorf("got %q", out)
	}
}

func TestUninitializedGlobalZero(t *testing.T) {
	out := run(t, `
var g: int;
var f: float;
var b: bool;
var s: string;
func main() { print(g, f, b, s); }`)
	if out != "0 0.0 false \n" {
		t.Errorf("got %q", out)
	}
}

func TestTernary(t *testing.T) {
	out := run(t, `
func main() {
    var x: int = 5;
    print(x > 3 ? "big" : "small");
    print(x < 3 ? 1 : 0);
}`)
	if out != "big\n0\n" {
		t.Errorf("got %q", out)
	}
}

func TestStringsAndChars(t *testing.T) {
	out := run(t, `
func main() {
    var s: string = "hi " + "there";
    print(s, len(s));
    print('A');
}`)
	if out != "hi there 8\n65\n" {
		t.Errorf("got %q", out)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`func main() { var x: int = 1 / 0; print(x); }`, "division by zero"},
		{`func main() { var x: int = 1 % 0; print(x); }`, "division by zero"},
		{`func main() { var a: int[] = new int[2]; a[5] = 1; }`, "out of range"},
		{`func main() { var a: int[] = new int[2]; print(a[-1]); }`, "out of range"},
		{`func main() { var a: int[] = null; a[0] = 1; }`, "null array"},
		{`func main() { var a: int[] = null; print(a[0]); }`, "null array"},
		{`class C { field v: int; } func main() { var c: C = null; print(c.v); }`, "null object"},
		{`class C { field v: int; } func main() { var c: C = null; c.v = 1; }`, "null object"},
		{`class C { field v: int; method m() { } } func main() { var c: C = null; c.m(); }`, "null object"},
		{`func main() { var a: int[] = new int[0 - 3]; print(len(a)); }`, "negative array size"},
		{`func main() { var s: string = null ? "" : ""; }`, ""}, // cond on null is false-y? see below
	}
	for _, c := range cases[:10] {
		_, err := runErr(c.src)
		if err == nil {
			t.Errorf("%q: expected error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestStepLimit(t *testing.T) {
	p := ir.MustCompile(`func main() { for (;;) { } }`)
	in := oracle.New(p, interp.Options{MaxSteps: 1000})
	err := in.Run()
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("expected step-limit error, got %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	_, err := runErr(`
func f(n: int): int { return f(n + 1); }
func main() { print(f(0)); }`)
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("expected stack overflow, got %v", err)
	}
}

func TestStepsCounted(t *testing.T) {
	p := ir.MustCompile(`func main() { var x: int = 1; x = x + 1; print(x); }`)
	in := oracle.New(p, interp.Options{})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Steps() < 3 {
		t.Errorf("steps = %d, want >= 3", in.Steps())
	}
}

func TestCallByQName(t *testing.T) {
	p := ir.MustCompile(`func add(a: int, b: int): int { return a + b; } func main() { }`)
	in := oracle.New(p, interp.Options{})
	v, err := in.Call("add", []interp.Value{interp.IntV(2), interp.IntV(40)})
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 42 {
		t.Errorf("got %v", v)
	}
}

func TestNullEquality(t *testing.T) {
	out := run(t, `
class C { field v: int; }
func main() {
    var c: C = null;
    var d: C = new C();
    print(c == null, d == null, d != null);
}`)
	if out != "true false true\n" {
		t.Errorf("got %q", out)
	}
}

func TestFloatPrinting(t *testing.T) {
	out := run(t, `func main() { print(1.5, 2.0, 0.25, 1e10); }`)
	if out != "1.5 2.0 0.25 1e+10\n" {
		t.Errorf("got %q", out)
	}
}

func TestWhilePostOnContinue(t *testing.T) {
	// continue must still run the for-post (i++), not loop forever.
	out := run(t, `
func main() {
    var n: int = 0;
    for (var i: int = 0; i < 5; i++) {
        if (i == 2) { continue; }
        n = n + 1;
    }
    print(n);
}`)
	if out != "4\n" {
		t.Errorf("got %q", out)
	}
}
