package cfg

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"slicehide/internal/ir"
)

func buildFunc(t *testing.T, src, name string) *Graph {
	t.Helper()
	p, err := ir.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := p.Func(name)
	if f == nil {
		t.Fatalf("no func %s", name)
	}
	return Build(f)
}

func node(t *testing.T, g *Graph, stmtID int) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Stmt != nil && n.Stmt.ID() == stmtID {
			return n
		}
	}
	t.Fatalf("no node for stmt %d\n%s", stmtID, g)
	return nil
}

func TestStraightLine(t *testing.T) {
	g := buildFunc(t, `func f(): int { var a: int = 1; var b: int = a + 1; return b; }`, "f")
	// entry, exit, 3 statements.
	if len(g.Nodes) != 5 {
		t.Fatalf("node count %d\n%s", len(g.Nodes), g)
	}
	if len(g.Entry.Succs) != 1 {
		t.Fatalf("entry succs: %v", g.Entry.Succs)
	}
	// Path entry -> a -> b -> return -> exit.
	n := g.Entry
	for i := 0; i < 4; i++ {
		if len(n.Succs) != 1 {
			t.Fatalf("node %s has %d succs", n, len(n.Succs))
		}
		n = n.Succs[0]
	}
	if n != g.Exit {
		t.Fatalf("path does not end at exit: %s", n)
	}
}

func TestIfElseDiamond(t *testing.T) {
	g := buildFunc(t, `
func f(x: int): int {
    var r: int = 0;
    if (x > 0) { r = 1; } else { r = 2; }
    return r;
}`, "f")
	cond := node(t, g, 1)
	if len(cond.Succs) != 2 {
		t.Fatalf("if node should have 2 succs, has %d", len(cond.Succs))
	}
	ret := node(t, g, 4)
	if len(ret.Preds) != 2 {
		t.Fatalf("join should have 2 preds, has %d", len(ret.Preds))
	}
}

func TestIfNoElse(t *testing.T) {
	g := buildFunc(t, `
func f(x: int): int {
    if (x > 0) { x = x - 1; }
    return x;
}`, "f")
	cond := node(t, g, 0)
	ret := node(t, g, 2)
	// cond must reach ret both via the then branch and directly.
	direct := false
	for _, s := range cond.Succs {
		if s == ret {
			direct = true
		}
	}
	if !direct {
		t.Errorf("if without else must fall through to join\n%s", g)
	}
}

func TestWhileLoopEdges(t *testing.T) {
	g := buildFunc(t, `
func f(n: int): int {
    var i: int = 0;
    while (i < n) { i = i + 1; }
    return i;
}`, "f")
	cond := node(t, g, 1)
	body := node(t, g, 2)
	ret := node(t, g, 3)
	// cond -> body, cond -> ret; body -> cond.
	has := func(from, to *Node) bool {
		for _, s := range from.Succs {
			if s == to {
				return true
			}
		}
		return false
	}
	if !has(cond, body) || !has(cond, ret) {
		t.Fatalf("cond edges wrong\n%s", g)
	}
	if !has(body, cond) {
		t.Fatalf("back edge missing\n%s", g)
	}
}

func TestBreakContinueEdges(t *testing.T) {
	g := buildFunc(t, `
func f(n: int): int {
    var s: int = 0;
    for (var i: int = 0; i < n; i++) {
        if (i == 3) { break; }
        if (i % 2 == 0) { continue; }
        s = s + i;
    }
    return s;
}`, "f")
	f := g.Func
	// Find the while statement and its post assign.
	var loop *ir.WhileStmt
	ir.WalkStmts(f.Body, func(s ir.Stmt) bool {
		if w, ok := s.(*ir.WhileStmt); ok {
			loop = w
		}
		return true
	})
	if loop == nil || len(loop.Post) != 1 {
		t.Fatalf("loop/post missing")
	}
	post := node(t, g, loop.Post[0].ID())
	// Find break and continue nodes.
	var brk, cont *Node
	for _, n := range g.Nodes {
		switch n.Stmt.(type) {
		case *ir.BreakStmt:
			brk = n
		case *ir.ContinueStmt:
			cont = n
		}
	}
	if brk == nil || cont == nil {
		t.Fatal("break/continue nodes missing")
	}
	// continue -> post (not cond).
	if len(cont.Succs) != 1 || cont.Succs[0] != post {
		t.Errorf("continue should target post, got %v", cont.Succs)
	}
	// break -> return node.
	var ret *Node
	for _, n := range g.Nodes {
		if _, ok := n.Stmt.(*ir.ReturnStmt); ok {
			ret = n
		}
	}
	if len(brk.Succs) != 1 || brk.Succs[0] != ret {
		t.Errorf("break should target loop exit (return), got %v", brk.Succs)
	}
}

func TestDominators(t *testing.T) {
	g := buildFunc(t, `
func f(x: int): int {
    var r: int = 0;
    if (x > 0) { r = 1; } else { r = 2; }
    return r;
}`, "f")
	dom := Dominators(g)
	init := node(t, g, 0)
	cond := node(t, g, 1)
	thn := node(t, g, 2)
	els := node(t, g, 3)
	ret := node(t, g, 4)
	if !dom.Dominates(cond, ret) || !dom.Dominates(init, ret) {
		t.Error("cond and init must dominate return")
	}
	if dom.Dominates(thn, ret) || dom.Dominates(els, ret) {
		t.Error("branch arms must not dominate return")
	}
	if d := dom.Idom(ret); d != cond {
		t.Errorf("idom(return) = %v, want cond", d)
	}
	if d := dom.Idom(thn); d != cond {
		t.Errorf("idom(then) = %v, want cond", d)
	}
}

func TestUnreachableCodeDoesNotBreakBuild(t *testing.T) {
	g := buildFunc(t, `
func f(): int {
    return 1;
    var x: int = 2;
    return x;
}`, "f")
	if g.Entry == nil || g.Exit == nil {
		t.Fatal("graph incomplete")
	}
	// Dominators should still terminate.
	_ = Dominators(g)
}

// TestIdomOfUnreachableIsNil: a statement after a return has no immediate
// dominator, and every node dominates it vacuously.
func TestIdomOfUnreachableIsNil(t *testing.T) {
	g := buildFunc(t, `func f(): int { return 1; var x: int = 2; return x; }`, "f")
	dom := Dominators(g)
	if d := dom.Idom(g.Entry); d != nil {
		t.Errorf("idom(entry) = %v, want nil", d)
	}
	for _, id := range []int{1, 2} {
		dead := node(t, g, id)
		if d := dom.Idom(dead); d != nil {
			t.Errorf("idom(s%d) = %v, want nil", id, d)
		}
		if !dom.Dominates(g.Exit, dead) || !dom.Dominates(node(t, g, 0), dead) {
			t.Errorf("s%d is unreachable, so every node dominates it", id)
		}
	}
	if d := dom.Idom(g.Exit); d != node(t, g, 0) {
		t.Errorf("idom(exit) = %v, want the reachable return", d)
	}
}

func TestInfiniteLoop(t *testing.T) {
	g := buildFunc(t, `
func f(): int {
    var i: int = 0;
    for (;;) {
        i = i + 1;
        if (i > 10) { break; }
    }
    return i;
}`, "f")
	// The condition is entered from the init and, as the back edge, from
	// the body's last statement (the if holding the break).
	cond := node(t, g, 1)
	if len(cond.Preds) != 2 || cond.Preds[0] != node(t, g, 0) || cond.Preds[1] != node(t, g, 3) {
		t.Errorf("loop condition preds=%v, want init and the body's if", cond.Preds)
	}
	// break must be the only loop exit.
	ret := func() *Node {
		for _, n := range g.Nodes {
			if _, ok := n.Stmt.(*ir.ReturnStmt); ok {
				return n
			}
		}
		return nil
	}()
	if len(ret.Preds) != 1 {
		t.Errorf("return should be reached only via break, preds=%v", ret.Preds)
	}
}

// String renders the node for diagnostics.
func (n *Node) String() string {
	if n.Stmt == nil {
		return fmt.Sprintf("#%d", n.Index)
	}
	return fmt.Sprintf("#%d[s%d]", n.Index, n.Stmt.ID())
}

// String renders the graph edges for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		succ := make([]string, len(n.Succs))
		for i, s := range n.Succs {
			succ[i] = s.String()
		}
		sort.Strings(succ)
		fmt.Fprintf(&b, "%s -> %s\n", n, strings.Join(succ, " "))
	}
	return b.String()
}

// Dominates reports whether a dominates b. A node Entry cannot reach is
// vacuously dominated by every node.
func (d *DomInfo) Dominates(a, b *Node) bool {
	i := b.Index
	if d.idom[i] < 0 {
		return true
	}
	for i != a.Index {
		if i == d.g.Entry.Index {
			return false
		}
		i = d.idom[i]
	}
	return true
}

// Idom returns the immediate dominator of n, or nil for Entry and for a
// node Entry cannot reach.
func (d *DomInfo) Idom(n *Node) *Node {
	i := d.idom[n.Index]
	if i < 0 || n == d.g.Entry {
		return nil
	}
	return d.g.Nodes[i]
}
