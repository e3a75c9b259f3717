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

// Def is a definition site: a variable defined at a statement. Implicit
// defs model values that exist on function entry (parameters, globals,
// fields, array contents) and definitions performed by calls.
type Def struct {
	// Index is the def's position in Result.Defs.
	Index int
	// Stmt is the defining statement, or nil for entry defs.
	Stmt ir.Stmt
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
	if d.Stmt == nil {
		return fmt.Sprintf("%s%s@entry", tag, d.Var)
	}
	return fmt.Sprintf("%s%s@s%d", tag, d.Var, d.Stmt.ID())
}

// Result holds reaching-definition facts for one function.
type Result struct {
	Defs []*Def
	// ud holds, for each variable a statement reads, the defs that reach
	// the read, in index order.
	ud map[use][]*Def
}

// use is a read of a variable at a statement, by statement ID.
type use struct {
	stmt int
	v    *ir.Var
}

// DefsReaching returns the defs of v that reach the read of v at the
// statement with ID id.
func (r *Result) DefsReaching(id int, v *ir.Var) []*Def { return r.ud[use{id, v}] }

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

// stmtHasCall reports whether s contains a call.
func stmtHasCall(s ir.Stmt) bool {
	found := false
	ir.StmtExprs(s, func(e ir.Expr) { found = found || ir.HasCall(e) })
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
	r := &Result{ud: make(map[use][]*Def)}
	vars := collectVars(g)
	defsOf := make([][]*Def, len(g.Nodes))
	addDef := func(n *cfg.Node, v *ir.Var, implicit bool) {
		d := &Def{Index: len(r.Defs), Stmt: n.Stmt, Var: v, Implicit: implicit}
		r.Defs = append(r.Defs, d)
		defsOf[n.Index] = append(defsOf[n.Index], d)
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
		dv := ir.DefinedVar(n.Stmt)
		if dv != nil {
			addDef(n, dv, false)
		}
		if stmtHasCall(n.Stmt) {
			for _, v := range mutatedByCall(vars) {
				if v != dv {
					addDef(n, v, true)
				}
			}
		}
	}

	nd := len(r.Defs)
	gen := make([]bitset, len(g.Nodes))
	kill := make([]bitset, len(g.Nodes))
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
	for i := range g.Nodes {
		gen[i] = newBitset(nd)
		kill[i] = newBitset(nd)
		for _, d := range defsOf[i] {
			gen[i].set(d.Index)
			// Only an explicit assignment to a scalar-like variable kills;
			// implicit call-defs and aggregate stores are weak.
			if !d.Implicit && strong(d.Var) {
				for _, j := range byVar[d.Var] {
					if j != d.Index {
						kill[i].set(j)
					}
				}
			}
		}
	}

	// Iterate to fixpoint: In[n] = union of Out[p]; Out[n] = gen ∪ (In−kill).
	in := make([]bitset, len(g.Nodes))
	out := make([]bitset, len(g.Nodes))
	for i := range g.Nodes {
		in[i] = newBitset(nd)
		out[i] = newBitset(nd)
	}
	changed := true
	tmp := newBitset(nd)
	for changed {
		changed = false
		for i, n := range g.Nodes {
			tmp.zero()
			for _, p := range n.Preds {
				tmp.union(out[p.Index])
			}
			in[i].copyFrom(tmp)
			// out = gen ∪ (in − kill)
			tmp.subtract(kill[i])
			tmp.union(gen[i])
			if !tmp.equal(out[i]) {
				out[i].copyFrom(tmp)
				changed = true
			}
		}
	}

	// Materialize the UD chains: each use's defs in index order.
	for i, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		for _, v := range ir.UsedVars(n.Stmt) {
			var defs []*Def
			for _, j := range byVar[v] {
				if in[i].has(j) {
					defs = append(defs, r.Defs[j])
				}
			}
			if defs != nil {
				r.ud[use{n.Stmt.ID(), v}] = defs
			}
		}
	}
	return r
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
