package dataflow

import (
	"testing"

	"slicehide/internal/cfg"
	"slicehide/internal/ir"
)

func analyze(t *testing.T, src, name string) (*cfg.Graph, *Result) {
	t.Helper()
	p, err := ir.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := p.Func(name)
	if f == nil {
		t.Fatalf("no func %s", name)
	}
	g := cfg.Build(f)
	return g, Reaching(g)
}

func findVar(t *testing.T, f *ir.Func, name string) *ir.Var {
	t.Helper()
	if v := f.LookupVar(name); v != nil {
		return v
	}
	t.Fatalf("no var %s", name)
	return nil
}

func TestStraightLineChains(t *testing.T) {
	g, r := analyze(t, `
func f(x: int): int {
    var a: int = x + 1;
    var b: int = a * 2;
    a = b + 3;
    return a;
}`, "f")
	f := g.Func
	a := findVar(t, f, "a")
	// Use of a at stmt 1 must see only the def at stmt 0.
	n1 := g.ByStmt[1]
	defs := r.DefsReachingUse(n1, a)
	if len(defs) != 1 || defs[0].Node.Stmt.ID() != 0 {
		t.Errorf("defs of a at s1: %v", defs)
	}
	// Use of a at return must see only the def at stmt 2 (s0 killed).
	ret := g.ByStmt[3]
	defs = r.DefsReachingUse(ret, a)
	if len(defs) != 1 || defs[0].Node.Stmt.ID() != 2 {
		t.Errorf("defs of a at return: %v", defs)
	}
}

func TestBranchMerge(t *testing.T) {
	g, r := analyze(t, `
func f(c: bool): int {
    var a: int = 1;
    if (c) { a = 2; } else { a = 3; }
    return a;
}`, "f")
	a := findVar(t, g.Func, "a")
	ret := g.ByStmt[4]
	defs := r.DefsReachingUse(ret, a)
	if len(defs) != 2 {
		t.Fatalf("expected 2 reaching defs at merge, got %v", defs)
	}
	ids := map[int]bool{}
	for _, d := range defs {
		ids[d.Node.Stmt.ID()] = true
	}
	if !ids[2] || !ids[3] {
		t.Errorf("reaching defs: %v", defs)
	}
}

func TestLoopCarriedDependence(t *testing.T) {
	g, r := analyze(t, `
func f(n: int): int {
    var s: int = 0;
    var i: int = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}`, "f")
	s := findVar(t, g.Func, "s")
	// Use of s inside the loop (s = s + i at stmt 3) sees both the init
	// (stmt 0) and the loop-carried def (stmt 3 itself).
	body := g.ByStmt[3]
	defs := r.DefsReachingUse(body, s)
	if len(defs) != 2 {
		t.Fatalf("loop-carried defs of s: %v", defs)
	}
}

func TestParamImplicitDef(t *testing.T) {
	g, r := analyze(t, `func f(x: int): int { return x + 1; }`, "f")
	x := findVar(t, g.Func, "x")
	ret := g.ByStmt[0]
	defs := r.DefsReachingUse(ret, x)
	if len(defs) != 1 || !defs[0].Implicit || defs[0].Node != g.Entry {
		t.Errorf("param def: %v", defs)
	}
}

func TestArrayWeakUpdate(t *testing.T) {
	g, r := analyze(t, `
func f(): int {
    var a: int[] = new int[4];
    a[0] = 1;
    a[1] = 2;
    return a[0];
}`, "f")
	ret := g.ByStmt[3]
	// The read a[0] must see both element stores (weak updates) plus the
	// entry def of the pseudo-var.
	var elemDefs []*Def
	for v, ds := range r.UD[ret] {
		if v.Kind == ir.VarElems {
			elemDefs = ds
		}
	}
	explicit := 0
	for _, d := range elemDefs {
		if !d.Implicit {
			explicit++
		}
	}
	if explicit != 2 {
		t.Errorf("element read should see 2 stores, got %v", elemDefs)
	}
}

func TestCallClobbersGlobals(t *testing.T) {
	g, r := analyze(t, `
var g: int = 0;
func h() { g = 5; }
func f(): int {
    g = 1;
    h();
    return g;
}`, "f")
	var gv *ir.Var
	for v := range r.UD[g.ByStmt[2]] {
		if v.Kind == ir.VarGlobal {
			gv = v
		}
	}
	if gv == nil {
		t.Fatal("global use not found")
	}
	defs := r.DefsReachingUse(g.ByStmt[2], gv)
	// g=1 is killed... no: the call creates a def but does not kill, so
	// both g=1 and the call-def reach. At minimum the call def must be there.
	foundCallDef := false
	for _, d := range defs {
		if d.Implicit && d.Node.Stmt != nil {
			foundCallDef = true
		}
	}
	if !foundCallDef {
		t.Errorf("call should define global: %v", defs)
	}
}

func TestCallDoesNotClobberLocals(t *testing.T) {
	g, r := analyze(t, `
func h() { }
func f(): int {
    var a: int = 1;
    h();
    return a;
}`, "f")
	a := findVar(t, g.Func, "a")
	defs := r.DefsReachingUse(g.ByStmt[2], a)
	if len(defs) != 1 || defs[0].Implicit {
		t.Errorf("local must have exactly its explicit def: %v", defs)
	}
}

func TestDUChainsInverse(t *testing.T) {
	g, r := analyze(t, `
func f(x: int): int {
    var a: int = x;
    var b: int = a + a;
    return b;
}`, "f")
	// Every UD entry must appear in DU and vice versa.
	for n, m := range r.UD {
		for _, defs := range m {
			for _, d := range defs {
				found := false
				for _, u := range r.DU[d] {
					if u == n {
						found = true
					}
				}
				if !found {
					t.Errorf("DU missing %v -> s%d", d, n.Stmt.ID())
				}
			}
		}
	}
	_ = g
}

func TestResultStringStable(t *testing.T) {
	_, r := analyze(t, `func f(x: int): int { var a: int = x; return a; }`, "f")
	s1, s2 := r.String(), r.String()
	if s1 != s2 || s1 == "" {
		t.Errorf("unstable or empty chain dump:\n%s", s1)
	}
}
