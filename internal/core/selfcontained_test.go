package core_test

import (
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
)

func analyze(t *testing.T, src, fn string) core.MethodInfo {
	t.Helper()
	p, err := ir.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := p.Func(fn)
	if f == nil {
		t.Fatalf("no func %s", fn)
	}
	return core.AnalyzeMethod(f)
}

func TestSelfContainedScalarMethod(t *testing.T) {
	info := analyze(t, `
func f(x: int, y: int): int {
    var a: int = x * 2;
    var b: int = a + y;
    while (b > 10) { b = b - 3; }
    return b;
}
func main() { print(f(1, 2)); }`, "f")
	if !info.SelfContained {
		t.Error("pure scalar method must be self-contained")
	}
	if info.Initializer {
		t.Error("method with control flow is not an initializer")
	}
	if info.Statements < 4 {
		t.Errorf("statement count: %d", info.Statements)
	}
}

func TestCallDisqualifies(t *testing.T) {
	info := analyze(t, `
func g(): int { return 1; }
func f(): int { return g() + 1; }
func main() { print(f()); }`, "f")
	if info.SelfContained {
		t.Error("method invoking another method is not self-contained")
	}
}

func TestAggregateDisqualifies(t *testing.T) {
	cases := []struct{ src, fn string }{
		{`func f(a: int[]): int { return a[0]; } func main() { }`, "f"},
		{`func f(): int { var a: int[] = new int[3]; return len(a); } func main() { }`, "f"},
		{`func f(s: string): int { return len(s); } func main() { }`, "f"},
		{`class C { field v: int[]; method m(): int[] { return v; } } func main() { }`, "C.m"},
	}
	for _, c := range cases {
		p, err := ir.Compile(c.src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		info := core.AnalyzeMethod(p.Func(c.fn))
		if info.SelfContained {
			t.Errorf("%s in %q must not be self-contained", c.fn, c.src)
		}
	}
}

func TestPrintDisqualifies(t *testing.T) {
	info := analyze(t, `func f(x: int) { print(x); } func main() { f(1); }`, "f")
	if info.SelfContained {
		t.Error("console output disqualifies self-containment")
	}
}

func TestInitializerDetection(t *testing.T) {
	p := oracle.MustCompile(`
class C {
    field a: int;
    field b: int;
    method setup(x: int) { a = 0; b = x; }
    method work(x: int): int { var t: int = x * 2 + a; return t; }
}
func main() { }`)
	setup := core.AnalyzeMethod(p.Func("C.setup"))
	if !setup.Initializer {
		t.Error("setup assigns constants/params only: initializer")
	}
	work := core.AnalyzeMethod(p.Func("C.work"))
	if work.Initializer {
		t.Error("work computes: not an initializer")
	}
}

func TestTable1Aggregation(t *testing.T) {
	src := `
func tiny(x: int): int { return x + 1; }
func big(x: int): int {
    var a: int = x;
    a = a + 1; a = a + 2; a = a + 3; a = a + 4; a = a + 5;
    a = a + 6; a = a + 7; a = a + 8; a = a + 9; a = a + 10;
    return a;
}
func caller(): int { return tiny(1); }
func main() { print(caller() + big(2)); }
`
	p := oracle.MustCompile(src)
	row, infos := core.AnalyzeProgram("test", p)
	if row.Methods != 4 {
		t.Errorf("methods: %d", row.Methods)
	}
	// tiny and big are self-contained; caller and main are not.
	if row.SelfContained != 2 {
		t.Errorf("self-contained: %d (%+v)", row.SelfContained, infos)
	}
	// Only big exceeds the smallness threshold.
	if row.SelfContainedBig != 1 {
		t.Errorf("self-contained > %d stmts: %d", core.SmallThreshold, row.SelfContainedBig)
	}
	if row.ExclInitializers != 1 {
		t.Errorf("excluding initializers: %d", row.ExclInitializers)
	}
}
