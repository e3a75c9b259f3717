package complexity

import (
	"fmt"
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

func analyzeSplit(t *testing.T, src, fn, seed string) []Report {
	t.Helper()
	prog, err := ir.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: fn, Seed: seed}}, slicer.Policy{})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	return Analyze(res.Splits[fn])
}

// linear returns a linear complexity over the named input of t.
func (t *nameTable) linear(name string) AC { return t.leaf(t.id(name)) }

func reportByKind(reports []Report, kind core.ILPKind) []Report {
	var out []Report
	for _, r := range reports {
		if r.ILP.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

func TestLatticeOps(t *testing.T) {
	tab := &nameTable{}
	lin := tab.linear("x")
	if got := Add(lin, tab.linear("y")); got.Type != Linear || got.NumInputs() != 2 || got.Degree != 1 {
		t.Errorf("linear+linear: %v", got)
	}
	if got := Mul(lin, tab.linear("y")); got.Type != Polynomial || got.Degree != 2 {
		t.Errorf("linear*linear: %v", got)
	}
	if got := Mul(ConstantAC(), lin); got.Type != Linear || got.Degree != 1 {
		t.Errorf("const*linear: %v", got)
	}
	if got := Div(lin, ConstantAC()); got.Type != Linear {
		t.Errorf("linear/const: %v", got)
	}
	if got := Div(lin, tab.linear("y")); got.Type != Rational {
		t.Errorf("linear/linear: %v", got)
	}
	if got := Arb(lin); got.Type != Arbitrary {
		t.Errorf("arb: %v", got)
	}
	if got := Raise(lin, tab.linear("n")); got.Type != Polynomial || got.Degree != 2 {
		t.Errorf("raise(linear, linear): %v", got)
	}
	if got := Raise(ConstantAC(), tab.linear("n")); got.Type != Linear || got.Degree != 1 {
		t.Errorf("raise(const, linear): %v", got)
	}
	if got := Raise(lin, Arb()); got.Type != Arbitrary {
		t.Errorf("raise to arbitrary: %v", got)
	}
}

func TestLatticeOrder(t *testing.T) {
	tab := &nameTable{}
	order := []AC{
		ConstantAC(),
		tab.linear("x"),
		{Type: Polynomial, Degree: 2},
		{Type: Rational, Degree: 2},
		{Type: Arbitrary},
	}
	for i := 0; i < len(order)-1; i++ {
		if !Less(order[i], order[i+1]) {
			t.Errorf("order violated at %d: %v !< %v", i, order[i], order[i+1])
		}
		if Less(order[i+1], order[i]) {
			t.Errorf("antisymmetry violated at %d", i)
		}
	}
	// Max/Min agree with Less.
	a, b := tab.linear("x"), AC{Type: Rational, Degree: 3}
	if Max(a, b).Type != Rational || Min(a, b).Type != Linear {
		t.Error("max/min inconsistent with order")
	}
}

func TestLinearLeak(t *testing.T) {
	// a = 3x + y is hidden; its leak must be classified linear with 2 inputs.
	reports := analyzeSplit(t, `
func f(x: int, y: int): int {
    var a: int = 3 * x + y;
    var B: int[] = new int[4];
    B[0] = a;
    return B[0];
}
func main() { print(f(1, 2)); }`, "f", "a")
	leaks := reportByKind(reports, core.ILPLeakAssign)
	if len(leaks) != 1 {
		t.Fatalf("leak reports: %v", reports)
	}
	got := leaks[0].AC
	if got.Type != Linear || got.NumInputs() != 2 || got.Degree != 1 {
		t.Errorf("AC of 3x+y leak: %v", got)
	}
}

func TestPolynomialLeak(t *testing.T) {
	reports := analyzeSplit(t, `
func f(x: int, y: int): int {
    var a: int = x * y + x;
    var B: int[] = new int[4];
    B[0] = a;
    return B[0];
}
func main() { print(f(2, 3)); }`, "f", "a")
	leaks := reportByKind(reports, core.ILPLeakAssign)
	if len(leaks) != 1 {
		t.Fatalf("leak reports: %v", reports)
	}
	if got := leaks[0].AC; got.Type != Polynomial || got.Degree != 2 {
		t.Errorf("AC of x*y+x leak: %v", got)
	}
}

func TestRationalLeak(t *testing.T) {
	reports := analyzeSplit(t, `
func f(x: float, y: float): float {
    var a: float = x / (y + 1.0);
    var B: float[] = new float[2];
    B[0] = a;
    return B[0];
}
func main() { print(f(4.0, 1.0)); }`, "f", "a")
	leaks := reportByKind(reports, core.ILPLeakAssign)
	if len(leaks) != 1 {
		t.Fatalf("leak reports: %v", reports)
	}
	if got := leaks[0].AC; got.Type != Rational {
		t.Errorf("AC of x/(y+1) leak: %v", got)
	}
}

func TestArbitraryPredicateLeak(t *testing.T) {
	reports := analyzeSplit(t, `
func f(x: int): int {
    var a: int = x * 2;
    var r: int = 0;
    if (a > 10) {
        r = 1;
    } else {
        print("lo");
    }
    return r + a;
}
func main() { print(f(9)); }`, "f", "a")
	conds := reportByKind(reports, core.ILPCond)
	if len(conds) == 0 {
		t.Fatalf("no predicate ILPs: %v", reports)
	}
	for _, c := range conds {
		if c.AC.Type != Arbitrary {
			t.Errorf("predicate AC must be arbitrary: %v", c.AC)
		}
		if !c.CC.HiddenPredicates {
			t.Errorf("predicate ILP must report hidden predicates: %v", c.CC)
		}
	}
}

// figure3Src mirrors the paper's Figure 3 example (the modified Figure 2):
// the hidden variable sum accumulates linear terms over a loop whose trip
// count is linear in observable values; the value of sum fetched after the
// loop must therefore be at least polynomial of degree 2 (the paper's
// ILP④ is <Polynomial, 4, 2>).
const figure3Src = `
func f(x: int, y: int, z: int): int {
    var a: int = 3 * x + y;
    var sum: int = 0;
    var i: int = a;
    while (i < z) {
        sum = sum + i;
        i = i + 1;
    }
    return sum;
}
func main() { print(f(1, 2, 20)); }
`

func TestFigure3SumIsPolynomialDegree2(t *testing.T) {
	reports := analyzeSplit(t, figure3Src, "f", "a")
	// Find the report for the fetch/eval of sum at the return.
	var sumReport *Report
	for i, r := range reports {
		if vr, ok := r.ILP.HiddenExpr.(*ir.VarRef); ok && vr.Var.Name == "sum" {
			sumReport = &reports[i]
		}
	}
	if sumReport == nil {
		t.Fatalf("no sum ILP found: %v", reports)
	}
	if sumReport.AC.Type != Polynomial || sumReport.AC.Degree < 2 {
		t.Errorf("AC(sum at return) = %v, want polynomial degree >= 2", sumReport.AC)
	}
	// The whole loop is hidden, so paths are variable and flow is hidden.
	if !sumReport.CC.PathsVariable {
		t.Errorf("CC paths must be variable: %v", sumReport.CC)
	}
	if !sumReport.CC.HiddenPredicates || !sumReport.CC.HiddenFlow {
		t.Errorf("CC must report hidden predicate and flow: %v", sumReport.CC)
	}
}

func TestDefinitelyLeakedDefIsObservable(t *testing.T) {
	// a's sole def is leaked at B[0] = a. A later leak of c = a + 1 can
	// treat a as observable: c's AC relative to observables is linear.
	reports := analyzeSplit(t, `
func f(x: int, y: int): int {
    var a: int = x * y + x * x;
    var B: int[] = new int[4];
    B[0] = a;
    var c: int = a + 1;
    B[1] = c;
    return B[1];
}
func main() { print(f(2, 3)); }`, "f", "a")
	leaks := reportByKind(reports, core.ILPLeakAssign)
	if len(leaks) != 2 {
		t.Fatalf("want 2 leaks, got %v", reports)
	}
	// First leak (a itself): polynomial (x*y + x*x).
	if got := leaks[0].AC; got.Type != Polynomial {
		t.Errorf("AC of first leak: %v", got)
	}
	// Second leak (c = a + 1): linear in the already-observed a.
	if got := leaks[1].AC; got.Type != Linear {
		t.Errorf("AC of second leak: %v", got)
	}
}

func TestVaryingInputsFromArrayInLoop(t *testing.T) {
	reports := analyzeSplit(t, `
func f(n: int): int {
    var B: int[] = new int[n];
    for (var k: int = 0; k < n; k++) { B[k] = k; }
    var s: int = 0;
    var i: int = 0;
    while (i < n) {
        s = s + B[i];
        i = i + 1;
    }
    return s;
}
func main() { print(f(5)); }`, "f", "s")
	var found bool
	for _, r := range reports {
		if r.AC.Varying {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a varying-inputs ILP (array elements shipped per iteration): %+v", reports)
	}
}

func TestAggregate(t *testing.T) {
	reports := analyzeSplit(t, figure3Src, "f", "a")
	t3, t4 := Aggregate("fig3", reports)
	if t3.Total() != len(reports) {
		t.Errorf("table3 total %d != %d reports", t3.Total(), len(reports))
	}
	if t3.MaxDegree < 2 {
		t.Errorf("max degree: %d", t3.MaxDegree)
	}
	if t4.PathsVariable == 0 || t4.PredicatesHidden == 0 || t4.FlowHidden == 0 {
		t.Errorf("table4 row: %+v", t4)
	}
}

func TestMaxAC(t *testing.T) {
	reports := analyzeSplit(t, figure3Src, "f", "a")
	max := MaxAC(reports)
	if max.Type < Polynomial {
		t.Errorf("max AC: %v", max)
	}
}

func TestACStringFormat(t *testing.T) {
	tab := &nameTable{}
	ac := Mul(tab.linear("x"), tab.linear("y"))
	if got := ac.String(); got != "<polynomial, 2, 2>" {
		t.Errorf("ac string: %s", got)
	}
	ac.Varying = true
	if got := ac.String(); got != "<polynomial, varying, 2>" {
		t.Errorf("varying string: %s", got)
	}
	cc := CC{PathsVariable: true, HiddenPredicates: true, HiddenFlow: true}
	if got := cc.String(); got != "<variable, hidden, hidden>" {
		t.Errorf("cc string: %s", got)
	}
}

func TestParseType(t *testing.T) {
	for _, name := range []string{"constant", "linear", "polynomial", "rational", "arbitrary"} {
		ty, err := ParseType(name)
		if err != nil || ty.String() != name {
			t.Errorf("parse %s: %v %v", name, ty, err)
		}
	}
	if _, err := ParseType("nope"); err == nil {
		t.Error("expected error")
	}
}

// ParseType converts a class name back to its Type (used by table tooling).
func ParseType(s string) (Type, error) {
	switch strings.ToLower(s) {
	case "constant":
		return Constant, nil
	case "linear":
		return Linear, nil
	case "polynomial":
		return Polynomial, nil
	case "rational":
		return Rational, nil
	case "arbitrary":
		return Arbitrary, nil
	}
	return Constant, fmt.Errorf("complexity: unknown type %q", s)
}
