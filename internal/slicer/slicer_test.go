package slicer

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"slicehide/internal/ir"
	"slicehide/internal/oracle"
)

// figure2Src is the paper's Figure 2 example: splitting function f is
// initiated by hiding local variable a; the forward slice pulls in b, i,
// and sum, the whole while loop, and the then-clause of the if.
const figure2Src = `
func f(x: int, y: int, z: int): int {
    var a: int = 3 * x + y;
    var b: int = 0;
    var sum: int = 0;
    var i: int = a;
    var B: int[] = new int[z + 1];
    while (i < z) {
        b = 2 * i;
        sum = sum + b;
        B[i] = b;
        i = i + 1;
    }
    if (sum > 100) {
        sum = sum - 100;
    } else {
        B[0] = x;
    }
    return sum;
}
func main() { print(f(1, 2, 10)); }
`

func sliceOf(t *testing.T, src, fn, seed string, policy Policy) *Slice {
	t.Helper()
	p, err := ir.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := p.Func(fn)
	if f == nil {
		t.Fatalf("no func %s", fn)
	}
	v := f.LookupVar(seed)
	if v == nil {
		t.Fatalf("no var %s", seed)
	}
	return Compute(f, v, policy)
}

func TestFigure2HiddenVars(t *testing.T) {
	s := sliceOf(t, figure2Src, "f", "a", Policy{})
	for _, name := range []string{"a", "b", "sum", "i"} {
		if !s.Hidden[s.Func.LookupVar(name)] {
			t.Errorf("%s must be hidden", name)
		}
	}
	if s.Hidden[s.Func.LookupVar("B")] {
		t.Error("array B must not be hidden")
	}
	if s.Hidden[s.Func.LookupVar("x")] {
		t.Error("x is only read; it must not be hidden")
	}
}

func TestFigure2Roles(t *testing.T) {
	s := sliceOf(t, figure2Src, "f", "a", Policy{})
	f := s.Func
	// Find statements by shape.
	var roles = map[string]Role{}
	ir.WalkStmts(f.Body, func(st ir.Stmt) bool {
		r := s.Roles[st.ID()]
		switch st := st.(type) {
		case *ir.AssignStmt:
			roles[ir.TargetString(st.Lhs)+" = "+ir.ExprString(st.Rhs)] = r
		case *ir.WhileStmt:
			roles["while"] = r
		case *ir.IfStmt:
			roles["if"] = r
		case *ir.ReturnStmt:
			roles["return"] = r
		}
		return true
	})
	wants := map[string]Role{
		"a = (3 * x) + y": RoleFull,
		"b = 2 * i":       RoleFull,
		"sum = sum + b":   RoleFull,
		"i = i + 1":       RoleFull,
		"sum = sum - 100": RoleFull,
		"B[i] = b":        RoleLeak,
		"while":           RoleCond,
		"if":              RoleCond,
		"return":          RoleUse,
	}
	for k, want := range wants {
		if got, ok := roles[k]; !ok || got != want {
			t.Errorf("%q: role %v, want %v (present %v)", k, got, want, ok)
		}
	}
	// B[0] = x uses no hidden values: untouched.
	if r := roles["B[0] = x"]; r != RoleNone {
		t.Errorf("B[0] = x: role %v, want none", r)
	}
}

func TestSeedInitializersHidden(t *testing.T) {
	// var a = 3*x+y is the seed's def; it must be in the slice (RoleFull).
	s := sliceOf(t, figure2Src, "f", "a", Policy{})
	if len(s.HiddenDefStmts()) < 5 {
		t.Errorf("hidden def stmts: %v", s.HiddenDefStmts())
	}
}

func TestCallRhsBecomesSend(t *testing.T) {
	s := sliceOf(t, `
func g(v: int): int { return v * 2; }
func f(x: int): int {
    var a: int = x + 1;
    a = g(a);
    a = a + 5;
    return a;
}
func main() { print(f(3)); }`, "f", "a", Policy{})
	f := s.Func
	// a = g(a) must be RoleSend: lhs hidden, rhs has call.
	var sendSeen, fullSeen bool
	ir.WalkStmts(f.Body, func(st ir.Stmt) bool {
		if a, ok := st.(*ir.AssignStmt); ok {
			switch s.Roles[a.ID()] {
			case RoleSend:
				if ir.HasCall(a.Rhs) {
					sendSeen = true
				}
			case RoleFull:
				fullSeen = true
			}
		}
		return true
	})
	if !sendSeen {
		t.Error("call-rhs def of hidden var must be RoleSend")
	}
	if !fullSeen {
		t.Error("plain defs of hidden var must be RoleFull")
	}
}

func TestPropagationStopsAtCalls(t *testing.T) {
	s := sliceOf(t, `
func g(v: int): int { return v; }
func f(x: int): int {
    var a: int = x;
    var u: int = g(a);
    var w: int = u + 1;
    return w;
}
func main() { print(f(1)); }`, "f", "a", Policy{})
	f := s.Func
	if s.Hidden[f.LookupVar("u")] {
		t.Error("u = g(a) must not propagate hiding through the call")
	}
	if s.Hidden[f.LookupVar("w")] {
		t.Error("w depends on u which is open")
	}
	// u = g(a) uses hidden a: RoleUse.
	if r := s.Roles[f.Body[1].ID()]; r != RoleUse {
		t.Errorf("u = g(a): role %v, want use", r)
	}
}

func TestPropagationThroughArraysStops(t *testing.T) {
	s := sliceOf(t, `
func f(x: int): int {
    var a: int = x;
    var B: int[] = new int[4];
    B[0] = a;
    var c: int = B[0];
    return c;
}
func main() { print(f(1)); }`, "f", "a", Policy{})
	f := s.Func
	if s.Hidden[f.LookupVar("c")] {
		t.Error("slice must terminate at array element definitions")
	}
	// B[0] = a is a leak (rhs hidden, lhs open aggregate).
	if r := s.Roles[f.Body[2].ID()]; r != RoleLeak {
		t.Errorf("B[0] = a: role %v, want leak", r)
	}
}

func TestBoolHiddenVariablePropagates(t *testing.T) {
	s := sliceOf(t, `
func f(x: int): int {
    var a: int = x * 2;
    var big: bool = a > 10;
    if (big) { return 1; }
    return 0;
}
func main() { print(f(9)); }`, "f", "a", Policy{})
	f := s.Func
	if !s.Hidden[f.LookupVar("big")] {
		t.Error("bool derived from hidden var must be hidden")
	}
	// The if reads hidden 'big' -> RoleCond.
	var condRole Role
	ir.WalkStmts(f.Body, func(st ir.Stmt) bool {
		if _, ok := st.(*ir.IfStmt); ok {
			condRole = s.Roles[st.ID()]
		}
		return true
	})
	if condRole != RoleCond {
		t.Errorf("if role %v, want cond", condRole)
	}
}

func TestGlobalsRespectPolicy(t *testing.T) {
	src := `
var g: int = 0;
func f(x: int): int {
    var a: int = x;
    g = a + 1;
    return g;
}
func main() { print(f(1)); }`
	s := sliceOf(t, src, "f", "a", Policy{})
	var gv *ir.Var
	for v := range s.Hidden {
		if v.Kind == ir.VarGlobal {
			gv = v
		}
	}
	if gv != nil {
		t.Error("global hidden despite HideGlobals=false")
	}
	s2 := sliceOf(t, src, "f", "a", Policy{HideGlobals: true})
	found := false
	for v := range s2.Hidden {
		if v.Kind == ir.VarGlobal {
			found = true
		}
	}
	if !found {
		t.Error("global not hidden despite HideGlobals=true")
	}
}

func TestStringNeverHidden(t *testing.T) {
	s := sliceOf(t, `
func f(x: int): string {
    var a: int = x;
    var msg: string = "v";
    if (a > 0) { msg = "pos"; }
    return msg;
}
func main() { print(f(1)); }`, "f", "a", Policy{})
	if s.Hidden[s.Func.LookupVar("msg")] {
		t.Error("string variable must never be hidden")
	}
}

func TestPrintIsUse(t *testing.T) {
	s := sliceOf(t, `
func f(x: int) {
    var a: int = x + 1;
    print(a);
}
func main() { f(2); }`, "f", "a", Policy{})
	f := s.Func
	if r := s.Roles[f.Body[1].ID()]; r != RoleUse {
		t.Errorf("print(a): role %v, want use", r)
	}
}

func TestBestSeed(t *testing.T) {
	p := oracle.MustCompile(figure2Src)
	f := p.Func("f")
	seed, sl := BestSeed(f, Policy{})
	if seed == nil || sl == nil {
		t.Fatal("no seed found")
	}
	// Seeding at 'a' (or an equivalent variable in its closure) gives the
	// largest slice; 'B' must never be chosen.
	if seed.Name == "B" {
		t.Errorf("seed %s must be scalar", seed)
	}
	if sl.Size() < 5 {
		t.Errorf("best slice too small: %d", sl.Size())
	}
}

func TestSliceStringGolden(t *testing.T) {
	s := sliceOf(t, figure2Src, "f", "a", Policy{})
	text := s.String()
	for _, want := range []string{"slice of f from a", "hidden: a b i sum"} {
		if !strings.Contains(text, want) {
			t.Errorf("slice dump missing %q:\n%s", want, text)
		}
	}
}

func TestNoHiddenUsesNoRoles(t *testing.T) {
	s := sliceOf(t, `
func f(x: int): int {
    var a: int = x;
    var unrelated: int = 7;
    return unrelated;
}
func main() { print(f(1)); }`, "f", "a", Policy{})
	f := s.Func
	if r := s.Roles[f.Body[1].ID()]; r != RoleNone {
		t.Errorf("unrelated stmt role %v", r)
	}
	if r := s.Roles[f.Body[2].ID()]; r != RoleNone {
		t.Errorf("unrelated return role %v", r)
	}
}

// HiddenDefStmts returns the IDs of statements whose definitions live in the
// hidden component (RoleFull and RoleSend).
func (s *Slice) HiddenDefStmts() []int {
	var ids []int
	for id, r := range s.Roles {
		if r == RoleFull || r == RoleSend {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleFull:
		return "full"
	case RoleSend:
		return "send"
	case RoleLeak:
		return "leak"
	case RoleUse:
		return "use"
	case RoleCond:
		return "cond"
	}
	return "?"
}

// HiddenVarNames returns the hidden variable names, sorted.
func (s *Slice) HiddenVarNames() []string {
	var names []string
	for v := range s.Hidden {
		names = append(names, v.String())
	}
	sort.Strings(names)
	return names
}

// String renders the slice for golden tests: hidden vars plus per-statement
// roles in statement-ID order.
func (s *Slice) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slice of %s from %s\n", s.Func.QName(), s.Seed)
	fmt.Fprintf(&b, "hidden: %s\n", strings.Join(s.HiddenVarNames(), " "))
	var ids []int
	for id := range s.Roles {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "s%-3d %s\n", id, s.Roles[id])
	}
	return b.String()
}
