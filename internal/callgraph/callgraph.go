// Package callgraph builds the program call graph and implements the
// function-selection strategy of the paper (§2.2): find a cut across the
// call graph so that every execution runs at least one split function,
// while avoiding functions that are recursive or called from inside loops.
package callgraph

import (
	"slices"
	"sort"

	"slicehide/internal/cfg"
	"slicehide/internal/ir"
)

// Graph is a program call graph.
type Graph struct {
	Prog *ir.Program
	// Callees maps each function to the set of functions it calls.
	Callees map[string]map[string]bool
	// Callers is the reverse relation.
	Callers map[string]map[string]bool
	// Recursive marks functions involved in direct or indirect recursion.
	Recursive map[string]bool
	// LoopCalled marks functions with at least one call site that a while
	// statement of some caller encloses (its condition, body or Post).
	LoopCalled map[string]bool

	// names lists the program's functions in name order; a function's
	// dense ID, which Tarjan's algorithm and the dominators share, is its
	// index there. succs and preds are the call edges between functions of
	// the program, by ID.
	names        []string
	id           map[string]int
	succs, preds [][]int
}

// Build constructs the call graph of prog. It reads the structured IR
// directly: a call is loop-called when a while statement encloses it, so
// no control-flow graph is needed.
func Build(prog *ir.Program) *Graph {
	n := len(prog.Order)
	g := &Graph{
		Prog:       prog,
		Callees:    make(map[string]map[string]bool, n),
		Callers:    make(map[string]map[string]bool, n),
		Recursive:  make(map[string]bool),
		LoopCalled: make(map[string]bool),
		names:      slices.Clone(prog.Order),
		id:         make(map[string]int, n),
		succs:      make([][]int, n),
		preds:      make([][]int, n),
	}
	sort.Strings(g.names)
	for i, qn := range g.names {
		g.id[qn] = i
		g.Callees[qn] = map[string]bool{}
	}
	for _, qn := range prog.Order {
		eachCall(prog.Funcs[qn].Body, false, func(_ ir.Stmt, callee string, inLoop bool) {
			g.addEdge(qn, callee, inLoop)
		})
	}
	g.findRecursion()
	return g
}

// eachCall calls fn for every call expression in stmts with the statement
// holding it and whether a while statement encloses it; inLoop says whether
// one encloses stmts. A while statement's own condition counts as inside.
func eachCall(stmts []ir.Stmt, inLoop bool, fn func(s ir.Stmt, callee string, inLoop bool)) {
	for _, s := range stmts {
		w, isWhile := s.(*ir.WhileStmt)
		loop := inLoop || isWhile
		ir.StmtExprs(s, func(e ir.Expr) {
			ir.WalkExpr(e, func(x ir.Expr) {
				if call, ok := x.(*ir.CallExpr); ok {
					fn(s, call.Callee, loop)
				}
			})
		})
		if isWhile {
			eachCall(w.Body, true, fn)
			eachCall(w.Post, true, fn)
		} else if is, ok := s.(*ir.IfStmt); ok {
			eachCall(is.Then, inLoop, fn)
			eachCall(is.Else, inLoop, fn)
		}
	}
}

func (g *Graph) addEdge(caller, callee string, inLoop bool) {
	if !g.Callees[caller][callee] {
		g.Callees[caller][callee] = true
		if j, known := g.id[callee]; known {
			i := g.id[caller]
			g.succs[i] = append(g.succs[i], j)
			g.preds[j] = append(g.preds[j], i)
		}
	}
	if g.Callers[callee] == nil {
		g.Callers[callee] = map[string]bool{}
	}
	g.Callers[callee][caller] = true
	if inLoop {
		g.LoopCalled[callee] = true
	}
}

// findRecursion marks functions in non-trivial SCCs or with self-loops
// using Tarjan's algorithm over the dense IDs (iterative to bound stack
// depth).
func (g *Graph) findRecursion() {
	n := len(g.names)
	index := make([]int, n) // visit order + 1; 0 = unvisited
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	next := 1
	type frame struct{ node, i int }
	var frames []frame
	visit := func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{node: v})
	}
	for start := range n {
		if index[start] != 0 {
			continue
		}
		visit(start)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(g.succs[f.node]) {
				w := g.succs[f.node][f.i]
				f.i++
				if index[w] == 0 {
					visit(w)
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Pop frame.
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].node; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// Root of an SCC: pop members.
			top := len(stack) - 1
			for stack[top] != v {
				top--
			}
			scc := stack[top:]
			stack = stack[:top]
			for _, w := range scc {
				onStack[w] = false
				if len(scc) > 1 {
					g.Recursive[g.names[w]] = true
				}
			}
			if len(scc) == 1 && g.Callees[g.names[v]][g.names[v]] {
				g.Recursive[g.names[v]] = true // self-recursion
			}
		}
	}
}

// CutOptions controls candidate eligibility for Cut.
type CutOptions struct {
	// AvoidRecursive excludes functions involved in recursion (paper
	// preference: a non-recursive split function needs only one hidden
	// activation record).
	AvoidRecursive bool
	// AvoidLoopCalled excludes functions called from inside loops (paper
	// restriction: avoids splitting functions invoked repeatedly).
	AvoidLoopCalled bool
	// Eligible, if non-nil, further filters candidates (e.g. "has a
	// hideable scalar local").
	Eligible func(qname string) bool
}

// Cut selects a set of functions such that every call path from root to a
// leaf of the call graph passes through a selected function wherever an
// eligible dominator exists. It returns the chosen set and the leaves for
// which no eligible dominator exists (uncovered). A root that is not a
// function of the program is its own uncovered leaf.
func (g *Graph) Cut(root string, opts CutOptions) (chosen []string, uncovered []string) {
	r, known := g.id[root]
	if !known {
		return nil, []string{root}
	}
	idom := g.idoms(r)
	// Leaves: reachable functions that call no function of the program.
	var leaves []int
	eligible := make([]bool, len(g.names))
	for i, f := range g.names {
		if idom[i] < 0 {
			continue
		}
		if len(g.succs[i]) == 0 {
			leaves = append(leaves, i)
		}
		eligible[i] = !(opts.AvoidRecursive && g.Recursive[f]) &&
			!(opts.AvoidLoopCalled && g.LoopCalled[f]) &&
			(opts.Eligible == nil || opts.Eligible(f))
	}
	if len(leaves) == 0 {
		leaves = []int{r}
	}
	// Candidate -> leaves it covers: the eligible functions on each leaf's
	// dominator-tree path to root.
	covers := make([][]int, len(g.names))
	for _, l := range leaves {
		for f := l; ; f = idom[f] {
			if eligible[f] {
				covers[f] = append(covers[f], l)
			}
			if f == r {
				break
			}
		}
	}
	// Greedy set cover, ties to the first name.
	need := make([]bool, len(g.names))
	for _, l := range leaves {
		need[l] = true
	}
	for left := len(leaves); left > 0; {
		best, bestCount := -1, 0
		for c, ls := range covers {
			count := 0
			for _, l := range ls {
				if need[l] {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = c, count
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, g.names[best])
		for _, l := range covers[best] {
			if need[l] {
				need[l] = false
				left--
			}
		}
	}
	for _, l := range leaves {
		if need[l] {
			uncovered = append(uncovered, g.names[l])
		}
	}
	sort.Strings(chosen)
	return chosen, uncovered
}

// idoms returns each function's immediate dominator from root, by ID.
func (g *Graph) idoms(root int) []int {
	return cfg.Idoms(len(g.names), root,
		func(i int) []int { return g.succs[i] }, func(i int) []int { return g.preds[i] })
}
