// Package cfg builds control-flow graphs over MiniJ IR statements, the
// graph the reaching-definitions analysis behind §3's security analysis
// runs on, and computes their dominators.
package cfg

import (
	"slicehide/internal/ir"
)

// Node is a CFG node. Statement nodes carry the IR statement (structured
// statements such as if/while appear as their condition evaluation); the
// synthetic Entry and Exit nodes carry no statement.
type Node struct {
	// Index is the node's position in Graph.Nodes.
	Index int
	// Stmt is the IR statement, or nil for Entry/Exit.
	Stmt ir.Stmt
	// Succs and Preds are the flow edges.
	Succs []*Node
	Preds []*Node
}

// Graph is the control-flow graph of one function.
type Graph struct {
	Func  *ir.Func
	Nodes []*Node
	Entry *Node
	Exit  *Node
}

func (g *Graph) newNode(s ir.Stmt) *Node {
	n := &Node{Index: len(g.Nodes), Stmt: s}
	g.Nodes = append(g.Nodes, n)
	return n
}

func edge(from, to *Node) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// loopCtx tracks the continue target and collected break nodes while
// building a loop body.
type loopCtx struct {
	continueTo *Node
	breaks     []*Node
}

// Build constructs the CFG for f.
func Build(f *ir.Func) *Graph {
	g := &Graph{Func: f}
	g.Entry = g.newNode(nil)
	g.Exit = g.newNode(nil)
	ends := g.buildStmts(f.Body, []*Node{g.Entry}, nil)
	for _, e := range ends {
		edge(e, g.Exit)
	}
	return g
}

// buildStmts wires the statement list after the given predecessor frontier
// and returns the new frontier (nodes whose successor is whatever follows).
func (g *Graph) buildStmts(stmts []ir.Stmt, preds []*Node, loop *loopCtx) []*Node {
	cur := preds
	for _, s := range stmts {
		// Unreachable code (empty frontier) still gets nodes so analyses
		// see them; buildStmt simply attaches no incoming edges.
		cur = g.buildStmt(s, cur, loop)
	}
	return cur
}

func (g *Graph) buildStmt(s ir.Stmt, preds []*Node, loop *loopCtx) []*Node {
	switch s := s.(type) {
	case *ir.IfStmt:
		cond := g.newNode(s)
		for _, p := range preds {
			edge(p, cond)
		}
		thenEnds := g.buildStmts(s.Then, []*Node{cond}, loop)
		var elseEnds []*Node
		if len(s.Else) > 0 {
			elseEnds = g.buildStmts(s.Else, []*Node{cond}, loop)
		} else {
			elseEnds = []*Node{cond}
		}
		return append(thenEnds, elseEnds...)
	case *ir.WhileStmt:
		cond := g.newNode(s)
		for _, p := range preds {
			edge(p, cond)
		}
		// Build the Post section first (detached) so the body's continue
		// statements can target its first node; with no Post, continue
		// goes straight back to the condition.
		postStart, postEnds := g.buildDetached(s.Post, loop)
		contTarget := cond
		if postStart != nil {
			contTarget = postStart
		}
		inner2 := &loopCtx{continueTo: contTarget}
		ends := g.buildStmts(s.Body, []*Node{cond}, inner2)
		// Body fallthrough enters Post (or loops to cond).
		if postStart != nil {
			for _, e := range ends {
				edge(e, postStart)
			}
			for _, e := range postEnds {
				edge(e, cond)
			}
		} else {
			for _, e := range ends {
				edge(e, cond)
			}
		}
		// Breaks recorded while building the body exit the loop. A
		// constant-true condition (a lowered `for(;;)`) never falls out.
		out := inner2.breaks
		if c, ok := s.Cond.(*ir.Const); !ok || c.Kind != ir.ConstBool || !c.B {
			out = append(out, cond)
		}
		return out
	case *ir.BreakStmt:
		n := g.newNode(s)
		for _, p := range preds {
			edge(p, n)
		}
		if loop != nil {
			loop.breaks = append(loop.breaks, n)
		}
		return nil
	case *ir.ContinueStmt:
		n := g.newNode(s)
		for _, p := range preds {
			edge(p, n)
		}
		if loop != nil && loop.continueTo != nil {
			edge(n, loop.continueTo)
		}
		return nil
	case *ir.ReturnStmt:
		n := g.newNode(s)
		for _, p := range preds {
			edge(p, n)
		}
		edge(n, g.Exit)
		return nil
	default:
		n := g.newNode(s)
		for _, p := range preds {
			edge(p, n)
		}
		return []*Node{n}
	}
}

// buildDetached builds stmts with no incoming edges yet, returning the first
// node and the fallthrough frontier. Returns (nil, nil) for an empty list.
func (g *Graph) buildDetached(stmts []ir.Stmt, loop *loopCtx) (*Node, []*Node) {
	if len(stmts) == 0 {
		return nil, nil
	}
	anchor := &Node{Index: -1}
	ends := g.buildStmts(stmts, []*Node{anchor}, loop)
	var first *Node
	if len(anchor.Succs) > 0 {
		first = anchor.Succs[0]
		// Remove the anchor from first's preds.
		for i, p := range first.Preds {
			if p == anchor {
				first.Preds = append(first.Preds[:i], first.Preds[i+1:]...)
				break
			}
		}
	}
	return first, ends
}
