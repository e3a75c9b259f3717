package callgraph

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"slicehide/internal/ir"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	p, err := ir.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return Build(p)
}

func TestEdges(t *testing.T) {
	g := build(t, `
func a() { b(); c(); }
func b() { c(); }
func c() { }
func main() { a(); }
`)
	want := map[string][]string{"a": {"b", "c"}, "b": {"c"}, "main": {"a"}}
	for caller, callees := range want {
		for _, c := range callees {
			if !g.Callees[caller][c] {
				t.Errorf("missing edge %s -> %s\n%s", caller, c, g)
			}
		}
	}
	if !g.Callers["c"]["a"] || !g.Callers["c"]["b"] {
		t.Errorf("callers of c wrong: %v", g.Callers["c"])
	}
}

func TestMethodEdges(t *testing.T) {
	g := build(t, `
class C {
    field v: int;
    method m(): int { return n() + 1; }
    method n(): int { return v; }
}
func main() { var c: C = new C(); print(c.m()); }
`)
	if !g.Callees["main"]["C.m"] {
		t.Errorf("main should call C.m\n%s", g)
	}
	if !g.Callees["C.m"]["C.n"] {
		t.Errorf("C.m should call C.n\n%s", g)
	}
}

func TestDirectRecursion(t *testing.T) {
	g := build(t, `
func fib(n: int): int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func main() { print(fib(10)); }
`)
	if !g.Recursive["fib"] {
		t.Error("fib must be recursive")
	}
	if g.Recursive["main"] {
		t.Error("main must not be recursive")
	}
}

func TestIndirectRecursion(t *testing.T) {
	g := build(t, `
func even(n: int): bool { if (n == 0) { return true; } return odd(n-1); }
func odd(n: int): bool { if (n == 0) { return false; } return even(n-1); }
func main() { print(even(7)); }
`)
	if !g.Recursive["even"] || !g.Recursive["odd"] {
		t.Error("even/odd must be mutually recursive")
	}
}

func TestLoopCalled(t *testing.T) {
	g := build(t, `
func work(i: int): int { return i * 2; }
func once(): int { return 7; }
func main() {
    var s: int = once();
    for (var i: int = 0; i < 10; i++) { s = s + work(i); }
    print(s);
}
`)
	if !g.LoopCalled["work"] {
		t.Error("work is called in a loop")
	}
	if g.LoopCalled["once"] {
		t.Error("once is not called in a loop")
	}
}

func TestReachable(t *testing.T) {
	g := build(t, `
func a() { b(); }
func b() { }
func dead() { }
func main() { a(); }
`)
	// The dominator tree from main spans exactly what main reaches.
	idom := g.idoms(g.id["main"])
	for _, f := range []string{"a", "b", "main"} {
		if idom[g.id[f]] < 0 {
			t.Errorf("%s must be reachable", f)
		}
	}
	if idom[g.id["dead"]] >= 0 {
		t.Error("dead must not be reachable")
	}
}

// dominates reports whether a dominates b in g's call graph from root.
func dominates(g *Graph, root, a, b string) bool {
	r := g.id[root]
	idom := g.idoms(r)
	for f := g.id[b]; f != g.id[a]; f = idom[f] {
		if f == r {
			return false
		}
	}
	return true
}

func TestDominators(t *testing.T) {
	g := build(t, `
func a() { c(); }
func b() { c(); }
func c() { d(); }
func d() { }
func main() { a(); b(); }
`)
	// c dominates d; a does not dominate c (b also reaches c).
	if !dominates(g, "main", "c", "d") {
		t.Error("c must dominate d")
	}
	if dominates(g, "main", "a", "c") {
		t.Error("a must not dominate c")
	}
	if !dominates(g, "main", "main", "d") {
		t.Error("main dominates everything")
	}
}

func TestCutCoversLeaves(t *testing.T) {
	g := build(t, `
func a() { c(); }
func b() { c(); }
func c() { }
func main() { a(); b(); }
`)
	chosen, uncovered := g.Cut("main", CutOptions{})
	if len(uncovered) != 0 {
		t.Fatalf("uncovered: %v", uncovered)
	}
	// c dominates the only leaf (c itself); greedy should pick one function.
	if len(chosen) != 1 {
		t.Fatalf("chosen: %v", chosen)
	}
}

// TestCutPicksDominatorOfLeaves: with the leaves themselves ineligible, the
// cut must find the function that dominates both of them; main dominates
// them too and loses the tie by name.
func TestCutPicksDominatorOfLeaves(t *testing.T) {
	g := build(t, `
func c() { }
func d() { }
func b() { c(); d(); }
func main() { b(); }
`)
	chosen, uncovered := g.Cut("main", CutOptions{Eligible: func(q string) bool { return q != "c" && q != "d" }})
	if len(chosen) != 1 || chosen[0] != "b" || len(uncovered) != 0 {
		t.Errorf("chosen %v, uncovered %v; want [b] and none", chosen, uncovered)
	}
}

func TestCutRespectsEligibility(t *testing.T) {
	g := build(t, `
func work(i: int): int { return i; }
func main() { for (var i: int = 0; i < 3; i++) { print(work(i)); } }
`)
	chosen, _ := g.Cut("main", CutOptions{AvoidLoopCalled: true})
	for _, c := range chosen {
		if c == "work" {
			t.Error("loop-called function selected despite AvoidLoopCalled")
		}
	}
}

func TestCutAvoidsRecursive(t *testing.T) {
	g := build(t, `
func fact(n: int): int { if (n < 2) { return 1; } return n * fact(n-1); }
func main() { print(fact(5)); }
`)
	chosen, _ := g.Cut("main", CutOptions{AvoidRecursive: true})
	sort.Strings(chosen)
	for _, c := range chosen {
		if c == "fact" {
			t.Error("recursive function selected despite AvoidRecursive")
		}
	}
	// main itself remains an eligible dominator of the leaf.
	if len(chosen) == 0 {
		t.Error("expected main to be chosen")
	}
}

func TestCutCustomFilter(t *testing.T) {
	g := build(t, `
func a() { }
func main() { a(); }
`)
	chosen, uncovered := g.Cut("main", CutOptions{Eligible: func(q string) bool { return q == "a" }})
	if len(chosen) != 1 || chosen[0] != "a" {
		t.Errorf("chosen: %v (uncovered %v)", chosen, uncovered)
	}
}

func TestCutUncoverable(t *testing.T) {
	g := build(t, `
func a() { }
func main() { a(); }
`)
	_, uncovered := g.Cut("main", CutOptions{Eligible: func(q string) bool { return false }})
	if len(uncovered) == 0 {
		t.Error("expected uncovered leaves when nothing is eligible")
	}
}

func TestDeterministicOutput(t *testing.T) {
	src := `
func a() { b(); c(); d(); }
func b() { e(); }
func c() { e(); }
func d() { e(); }
func e() { }
func main() { a(); }
`
	g1, g2 := build(t, src), build(t, src)
	if g1.String() != g2.String() {
		t.Error("graph dump not deterministic")
	}
	c1, u1 := g1.Cut("main", CutOptions{})
	c2, u2 := g2.Cut("main", CutOptions{})
	if len(c1) != len(c2) || len(u1) != len(u2) {
		t.Error("cut not deterministic")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Error("cut order not deterministic")
		}
	}
}

// String renders the call graph edges, sorted, for tests and debugging.
func (g *Graph) String() string {
	var lines []string
	for caller, callees := range g.Callees {
		var cs []string
		for c := range callees {
			cs = append(cs, c)
		}
		sort.Strings(cs)
		lines = append(lines, fmt.Sprintf("%s -> [%s]", caller, strings.Join(cs, " ")))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
