// Package callgraph builds the program call graph and implements the
// function-selection strategy of the paper (§2.2): find a cut across the
// call graph so that every execution runs at least one split function,
// while avoiding functions that are recursive or called from inside loops.
package callgraph

import (
	"fmt"
	"sort"
	"strings"

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
}

// Build constructs the call graph of prog. It reads the structured IR
// directly: a call is loop-called when a while statement encloses it, so
// no control-flow graph is needed.
func Build(prog *ir.Program) *Graph {
	g := &Graph{
		Prog:       prog,
		Callees:    make(map[string]map[string]bool, len(prog.Order)),
		Callers:    make(map[string]map[string]bool, len(prog.Order)),
		Recursive:  make(map[string]bool),
		LoopCalled: make(map[string]bool),
	}
	for _, qn := range prog.Order {
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
	g.Callees[caller][callee] = true
	if g.Callers[callee] == nil {
		g.Callers[callee] = map[string]bool{}
	}
	g.Callers[callee][caller] = true
	if inLoop {
		g.LoopCalled[callee] = true
	}
}

// findRecursion marks functions in non-trivial SCCs or with self-loops
// using Tarjan's algorithm over dense integer ids (iterative to bound stack
// depth).
func (g *Graph) findRecursion() {
	names := make([]string, 0, len(g.Callees))
	for qn := range g.Callees {
		names = append(names, qn)
	}
	sort.Strings(names)
	id := make(map[string]int, len(names))
	for i, qn := range names {
		id[qn] = i
	}
	succs := make([][]int, len(names))
	for i, qn := range names {
		for c := range g.Callees[qn] {
			if j, known := id[c]; known {
				succs[i] = append(succs[i], j)
			}
		}
	}

	n := len(names)
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
	for start := range names {
		if index[start] != 0 {
			continue
		}
		visit(start)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(succs[f.node]) {
				w := succs[f.node][f.i]
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
					g.Recursive[names[w]] = true
				}
			}
			if len(scc) == 1 && g.Callees[names[v]][names[v]] {
				g.Recursive[names[v]] = true // self-recursion
			}
		}
	}
}

// Reachable returns the set of functions reachable from root (inclusive).
func (g *Graph) Reachable(root string) map[string]bool {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		for c := range g.Callees[n] {
			if _, known := g.Callees[c]; known {
				walk(c)
			}
		}
	}
	walk(root)
	return seen
}

// Dominators computes call-graph dominators from root: dom[f] is the set of
// functions present on every call path from root to f.
func (g *Graph) Dominators(root string) map[string]map[string]bool {
	reach := g.Reachable(root)
	var nodes []string
	for n := range reach {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	dom := make(map[string]map[string]bool, len(nodes))
	all := map[string]bool{}
	for _, n := range nodes {
		all[n] = true
	}
	for _, n := range nodes {
		if n == root {
			dom[n] = map[string]bool{root: true}
		} else {
			full := make(map[string]bool, len(all))
			for k := range all {
				full[k] = true
			}
			dom[n] = full
		}
	}
	changed := true
	for changed {
		changed = false
		for _, n := range nodes {
			if n == root {
				continue
			}
			var inter map[string]bool
			for p := range g.Callers[n] {
				if !reach[p] {
					continue
				}
				if inter == nil {
					inter = make(map[string]bool, len(dom[p]))
					for k := range dom[p] {
						inter[k] = true
					}
				} else {
					for k := range inter {
						if !dom[p][k] {
							delete(inter, k)
						}
					}
				}
			}
			if inter == nil {
				inter = map[string]bool{}
			}
			inter[n] = true
			if len(inter) != len(dom[n]) {
				dom[n] = inter
				changed = true
				continue
			}
			for k := range inter {
				if !dom[n][k] {
					dom[n] = inter
					changed = true
					break
				}
			}
		}
	}
	return dom
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
// which no eligible dominator exists (uncovered).
func (g *Graph) Cut(root string, opts CutOptions) (chosen []string, uncovered []string) {
	reach := g.Reachable(root)
	dom := g.Dominators(root)
	eligible := func(f string) bool {
		if opts.AvoidRecursive && g.Recursive[f] {
			return false
		}
		if opts.AvoidLoopCalled && g.LoopCalled[f] {
			return false
		}
		if opts.Eligible != nil && !opts.Eligible(f) {
			return false
		}
		return true
	}
	// Leaves: reachable functions that call nothing (within the program).
	var leaves []string
	for f := range reach {
		hasCallee := false
		for c := range g.Callees[f] {
			if reach[c] {
				hasCallee = true
				break
			}
		}
		if !hasCallee {
			leaves = append(leaves, f)
		}
	}
	if len(leaves) == 0 {
		leaves = []string{root}
	}
	sort.Strings(leaves)
	// Candidate -> leaves it covers (candidate dominates leaf).
	covers := map[string][]string{}
	for f := range reach {
		if !eligible(f) {
			continue
		}
		for _, l := range leaves {
			if dom[l][f] {
				covers[f] = append(covers[f], l)
			}
		}
	}
	// Greedy set cover, deterministic tie-break by name.
	need := map[string]bool{}
	for _, l := range leaves {
		need[l] = true
	}
	for len(need) > 0 {
		best, bestCount := "", 0
		var cands []string
		for c := range covers {
			cands = append(cands, c)
		}
		sort.Strings(cands)
		for _, c := range cands {
			count := 0
			for _, l := range covers[c] {
				if need[l] {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = c, count
			}
		}
		if best == "" {
			break
		}
		chosen = append(chosen, best)
		for _, l := range covers[best] {
			delete(need, l)
		}
		delete(covers, best)
	}
	for l := range need {
		uncovered = append(uncovered, l)
	}
	sort.Strings(chosen)
	sort.Strings(uncovered)
	return chosen, uncovered
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
