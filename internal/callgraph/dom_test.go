package callgraph

import (
	"testing"

	"slicehide/internal/cfg"
	"slicehide/internal/ir"
)

// This file checks the one dominator algorithm, cfg.Idoms, against the
// definition on both kinds of graph it runs on: every function's CFG and
// every program's call graph from main, through the idoms Cut reads.

// cfgDominance runs cfg.Idoms over g's edges and returns the immediate
// dominators by node index with the dominance relation they give; a node
// Entry cannot reach is vacuously dominated by every node.
func cfgDominance(g *cfg.Graph) (idom []int, dominates func(a, b int) bool) {
	edges := func(i int, preds bool) []int {
		ns := g.Nodes[i].Succs
		if preds {
			ns = g.Nodes[i].Preds
		}
		out := make([]int, len(ns))
		for k, n := range ns {
			out[k] = n.Index
		}
		return out
	}
	idom = cfg.Idoms(len(g.Nodes), g.Entry.Index,
		func(i int) []int { return edges(i, false) }, func(i int) []int { return edges(i, true) })
	return idom, func(a, b int) bool {
		if idom[b] < 0 {
			return true
		}
		for b != a {
			if b == g.Entry.Index {
				return false
			}
			b = idom[b]
		}
		return true
	}
}

// reachWithout returns, for each node cut of a graph of n nodes, which nodes
// root reaches once cut is removed; entry n removes nothing.
func reachWithout(n, root int, succ func(int) []int) [][]bool {
	reach := make([][]bool, n+1)
	for cut := range reach {
		seen := make([]bool, n)
		if cut != root {
			seen[root] = true
			for work := []int{root}; len(work) > 0; {
				v := work[len(work)-1]
				work = work[:len(work)-1]
				for _, w := range succ(v) {
					if w != cut && !seen[w] {
						seen[w] = true
						work = append(work, w)
					}
				}
			}
		}
		reach[cut] = seen
	}
	return reach
}

// checkDominance compares dominates and idom (-1 for none) with the
// definition: a dominates a reachable b exactly when b becomes unreachable
// once a is removed, and b's immediate dominator is the strict dominator
// that every other strict dominator of b dominates. The root and every node
// root cannot reach have no immediate dominator.
func checkDominance(t *testing.T, name string, n, root int, succ func(int) []int,
	dominates func(a, b int) bool, idom func(b int) int) {
	t.Helper()
	reach := reachWithout(n, root, succ)
	for b := range n {
		if !reach[n][b] || b == root {
			if d := idom(b); d != -1 {
				t.Errorf("%s: idom(%d) = %d, want none", name, b, d)
			}
			if !reach[n][b] {
				continue
			}
		}
		var strict []int
		for a := range n {
			want := a == b || !reach[a][b]
			if got := dominates(a, b); got != want {
				t.Fatalf("%s: dominates(%d, %d) = %v, want %v", name, a, b, got, want)
			}
			if want && a != b {
				strict = append(strict, a)
			}
		}
		want := -1
		for _, d := range strict {
			all := true
			for _, a := range strict {
				all = all && (a == d || !reach[a][d])
			}
			if all {
				want = d
			}
		}
		if got := idom(b); got != want {
			t.Fatalf("%s: idom(%d) = %d, want %d", name, b, got, want)
		}
	}
}

// chainDominates reports whether a dominates b, walking b's idom chain up
// to root.
func chainDominates(idom []int, root, a, b int) bool {
	for ; b != a; b = idom[b] {
		if b == root {
			return false
		}
	}
	return true
}

func TestDominatorsMatchDefinition(t *testing.T) {
	cfgs := 0
	for name, src := range oracleSources(t) {
		prog, err := ir.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, qn := range prog.Order {
			g := cfg.Build(prog.Funcs[qn])
			idom, dominates := cfgDominance(g)
			checkDominance(t, name+" "+qn, len(g.Nodes), g.Entry.Index,
				func(i int) []int {
					var out []int
					for _, s := range g.Nodes[i].Succs {
						out = append(out, s.Index)
					}
					return out
				},
				dominates,
				func(b int) int {
					if b == g.Entry.Index {
						return -1
					}
					return idom[b]
				})
			cfgs++
		}
		cg := Build(prog)
		root, ok := cg.id["main"]
		if !ok {
			t.Fatalf("%s: no main", name)
		}
		idom := cg.idoms(root)
		checkDominance(t, name+" call graph", len(cg.names), root,
			func(i int) []int { return cg.succs[i] },
			func(a, b int) bool { return chainDominates(idom, root, a, b) },
			func(b int) int {
				if b == root {
					return -1
				}
				return idom[b]
			})
	}
	t.Logf("checked %d CFGs and their programs' call graphs", cfgs)
}
