// Package dataflow implements the intraprocedural dataflow analyses used by
// the slicer and the splitting transformation: reaching definitions and
// use-def chains.
//
// Aggregates are handled conservatively through pseudo-variables (see
// ir.VarElems / ir.VarHeap): stores into array elements or object fields are
// weak updates (they kill nothing), and any call is treated as a potential
// definition of every global, field, and aggregate pseudo-variable.
package dataflow

import (
	"fmt"

	"slicehide/internal/cfg"
	"slicehide/internal/ir"
)

// Def is a definition site: a variable defined at a CFG node. Implicit defs
// model values that exist on function entry (parameters, globals, fields,
// array contents) and definitions performed by calls.
type Def struct {
	// Index is the def's position in Result.Defs.
	Index int
	// Node is the defining node; the graph's entry node for implicit defs.
	Node *cfg.Node
	// Var is the variable defined.
	Var *ir.Var
	// Implicit is true for entry defs and call-side-effect defs.
	Implicit bool
}

func (d *Def) String() string {
	tag := ""
	if d.Implicit {
		tag = "~"
	}
	if d.Node.Stmt == nil {
		return fmt.Sprintf("%s%s@entry", tag, d.Var)
	}
	return fmt.Sprintf("%s%s@s%d", tag, d.Var, d.Node.Stmt.ID())
}

// Result holds reaching-definition facts for one function.
type Result struct {
	Graph *cfg.Graph
	Defs  []*Def
	// UD maps each node and used variable to the defs that reach the use.
	UD map[*cfg.Node]map[*ir.Var][]*Def

	defsOf map[*cfg.Node][]*Def
}

// mutatedByCall lists the variable classes a call may define: all globals,
// all class fields, all elems pseudo-vars, and the heap. Locals and params
// of the analyzed function are unaffected (MiniJ has no pointers to locals).
func mutatedByCall(vars []*ir.Var) []*ir.Var {
	var out []*ir.Var
	for _, v := range vars {
		switch v.Kind {
		case ir.VarGlobal, ir.VarField, ir.VarElems, ir.VarHeap:
			out = append(out, v)
		}
	}
	return out
}

// stmtHasCall reports whether node n's statement contains a call.
func stmtHasCall(n *cfg.Node) bool {
	if n.Stmt == nil {
		return false
	}
	found := false
	ir.StmtExprs(n.Stmt, func(e ir.Expr) {
		if ir.HasCall(e) {
			found = true
		}
	})
	return found
}

// collectVars returns every variable referenced (used or defined) in the
// function, in first-appearance order.
func collectVars(g *cfg.Graph) []*ir.Var {
	var vars []*ir.Var
	seen := map[*ir.Var]bool{}
	add := func(v *ir.Var) {
		if v != nil && !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	for _, p := range g.Func.Params {
		add(p)
	}
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		add(ir.DefinedVar(n.Stmt))
		for _, v := range ir.UsedVars(n.Stmt) {
			add(v)
		}
	}
	return vars
}

// Reaching computes reaching definitions and use-def chains for g.
func Reaching(g *cfg.Graph) *Result {
	r := &Result{
		Graph:  g,
		UD:     make(map[*cfg.Node]map[*ir.Var][]*Def),
		defsOf: make(map[*cfg.Node][]*Def),
	}
	vars := collectVars(g)

	addDef := func(n *cfg.Node, v *ir.Var, implicit bool) *Def {
		d := &Def{Index: len(r.Defs), Node: n, Var: v, Implicit: implicit}
		r.Defs = append(r.Defs, d)
		r.defsOf[n] = append(r.defsOf[n], d)
		return d
	}

	// Implicit entry defs: parameters, globals, fields, aggregates. These
	// model the values flowing in from outside the function.
	for _, v := range vars {
		switch v.Kind {
		case ir.VarParam, ir.VarGlobal, ir.VarField, ir.VarElems, ir.VarHeap:
			addDef(g.Entry, v, true)
		}
	}
	// Explicit defs and call side effects.
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		if v := ir.DefinedVar(n.Stmt); v != nil {
			addDef(n, v, false)
		}
		if stmtHasCall(n) {
			dv := ir.DefinedVar(n.Stmt)
			for _, v := range mutatedByCall(vars) {
				if v != dv {
					addDef(n, v, true)
				}
			}
		}
	}

	nd := len(r.Defs)
	gen := make(map[*cfg.Node]bitset)
	kill := make(map[*cfg.Node]bitset)
	// Group def indices by variable for kill computation.
	byVar := make(map[*ir.Var][]int)
	for _, d := range r.Defs {
		byVar[d.Var] = append(byVar[d.Var], d.Index)
	}
	strong := func(v *ir.Var) bool {
		switch v.Kind {
		case ir.VarLocal, ir.VarParam, ir.VarGlobal:
			return true
		}
		return false // elems/field/heap stores are weak updates
	}
	for _, n := range g.Nodes {
		gen[n] = newBitset(nd)
		kill[n] = newBitset(nd)
		for _, d := range r.defsOf[n] {
			gen[n].set(d.Index)
			// Only an explicit assignment to a scalar-like variable kills;
			// implicit call-defs and aggregate stores are weak.
			if !d.Implicit && strong(d.Var) {
				for _, j := range byVar[d.Var] {
					if j != d.Index {
						kill[n].set(j)
					}
				}
			}
		}
	}

	// Iterate to fixpoint: In[n] = union of Out[p]; Out[n] = gen ∪ (In−kill).
	in := make(map[*cfg.Node]bitset)
	out := make(map[*cfg.Node]bitset)
	for _, n := range g.Nodes {
		in[n] = newBitset(nd)
		out[n] = newBitset(nd)
	}
	changed := true
	tmp := newBitset(nd)
	for changed {
		changed = false
		for _, n := range g.Nodes {
			tmp.zero()
			for _, p := range n.Preds {
				tmp.union(out[p])
			}
			in[n].copyFrom(tmp)
			// out = gen ∪ (in − kill)
			tmp.subtract(kill[n])
			tmp.union(gen[n])
			if !tmp.equal(out[n]) {
				out[n].copyFrom(tmp)
				changed = true
			}
		}
	}

	// Materialize the UD chains: each use's defs in index order.
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		used := ir.UsedVars(n.Stmt)
		if len(used) == 0 {
			continue
		}
		m := make(map[*ir.Var][]*Def)
		for _, v := range used {
			for _, i := range byVar[v] {
				if in[n].has(i) {
					m[v] = append(m[v], r.Defs[i])
				}
			}
		}
		r.UD[n] = m
	}
	return r
}

// DefsReachingUse returns the defs of v that reach the use at node n.
func (r *Result) DefsReachingUse(n *cfg.Node, v *ir.Var) []*Def {
	if m, ok := r.UD[n]; ok {
		return m[v]
	}
	return nil
}

// ---------------------------------------------------------------------------

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) copyFrom(o bitset) { copy(b, o) }

func (b bitset) union(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) subtract(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
