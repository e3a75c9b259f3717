package slicer

import (
	"sync"

	"slicehide/internal/cfg"
	"slicehide/internal/dataflow"
	"slicehide/internal/ir"
)

// Facts is what the split side derives from a function alone — nothing in
// it depends on the seed or the policy — so every candidate seed of the
// function shares one copy. It is built on first use, hangs off the
// function (ir.Func.Facts), and is read-only: the function it describes
// never changes, and any number of goroutines may use it at once.
type Facts struct {
	// Enclosing maps a statement ID to the if/while statements around it,
	// outermost first; LoopsOf keeps only the whiles.
	Enclosing map[int][]ir.Stmt
	LoopsOf   map[int][]*ir.WhileStmt

	// feeds[u] lists the variables that some assignment with a call-free
	// right-hand side computes from u: the edges a forward slice follows.
	feeds map[*ir.Var][]*ir.Var
	// mentions[v] lists the statements that define or read v. A statement
	// outside mentions[v] for every hidden v has RoleNone.
	mentions map[*ir.Var][]ir.Stmt

	fn        *ir.Func
	reachOnce sync.Once
	reach     *dataflow.Result
}

// FactsOf returns f's facts, building them the first time f is asked.
func FactsOf(f *ir.Func) *Facts { return f.Facts(buildFacts).(*Facts) }

func buildFacts(f *ir.Func) any {
	fa := &Facts{
		Enclosing: make(map[int][]ir.Stmt),
		LoopsOf:   make(map[int][]*ir.WhileStmt),
		feeds:     make(map[*ir.Var][]*ir.Var),
		mentions:  make(map[*ir.Var][]ir.Stmt),
		fn:        f,
	}
	fa.walk(f.Body, nil, nil)
	return fa
}

// walk records stmts, which sit inside encl (loops being its whiles).
// Siblings share the two slices, so an inner list is always a fresh copy.
func (fa *Facts) walk(stmts []ir.Stmt, encl []ir.Stmt, loops []*ir.WhileStmt) {
	for _, st := range stmts {
		fa.Enclosing[st.ID()], fa.LoopsOf[st.ID()] = encl, loops
		def := ir.DefinedVar(st)
		if def != nil {
			fa.mentions[def] = append(fa.mentions[def], st)
		}
		for _, u := range ir.UsedVars(st) {
			if u != def {
				fa.mentions[u] = append(fa.mentions[u], st)
			}
		}
		switch st := st.(type) {
		case *ir.AssignStmt:
			// An array store defines nothing a slice can hide; a field store
			// does, when the policy hides fields (the §2.2 OO extension).
			if _, isElem := st.Lhs.(*ir.IndexTarget); isElem || def == nil || ir.HasCall(st.Rhs) {
				break
			}
			for _, u := range ir.ExprVars(st.Rhs) {
				fa.feeds[u] = append(fa.feeds[u], def)
			}
		case *ir.IfStmt:
			inner := append(encl[:len(encl):len(encl)], st)
			fa.walk(st.Then, inner, loops)
			fa.walk(st.Else, inner, loops)
		case *ir.WhileStmt:
			inner := append(encl[:len(encl):len(encl)], st)
			innerLoops := append(loops[:len(loops):len(loops)], st)
			fa.walk(st.Body, inner, innerLoops)
			fa.walk(st.Post, inner, innerLoops)
		}
	}
}

// Reaching returns f's reaching definitions, computed over its one
// control-flow graph the first time an analysis asks: slicing itself reads
// none.
func (fa *Facts) Reaching() *dataflow.Result {
	fa.reachOnce.Do(func() { fa.reach = dataflow.Reaching(cfg.Build(fa.fn)) })
	return fa.reach
}

// closure returns the hidden-variable set of a slice seeded at seed: the
// hideable variables reachable from it in the feeds graph (Step 1).
func (fa *Facts) closure(seed *ir.Var, policy Policy) map[*ir.Var]bool {
	hidden := map[*ir.Var]bool{seed: true}
	for work := []*ir.Var{seed}; len(work) > 0; {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, v := range fa.feeds[u] {
			if !hidden[v] && policy.HideableVar(v) {
				hidden[v] = true
				work = append(work, v)
			}
		}
	}
	return hidden
}
