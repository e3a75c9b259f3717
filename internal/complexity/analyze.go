package complexity

import (
	"fmt"

	"slicehide/internal/core"
	"slicehide/internal/dataflow"
	"slicehide/internal/ir"
	"slicehide/internal/lang/token"
	"slicehide/internal/slicer"
)

// CC is the §3 control-flow complexity triple <Paths, Predicates, Flow>.
type CC struct {
	// PathsVariable reports whether the number of paths through the hidden
	// code behind the ILP depends on runtime values (hidden loops).
	PathsVariable bool
	// Paths estimates the path count when it is a compile-time constant
	// (2^branches, capped).
	Paths int
	// HiddenPredicates reports whether some predicate governing the leaked
	// computation lives in the hidden component.
	HiddenPredicates bool
	// HiddenFlow reports whether control-flow constructs of the leaked
	// computation were moved (partially or fully) to the hidden component.
	HiddenFlow bool
}

// String renders the triple the way the paper writes it.
func (c CC) String() string {
	paths := "constant"
	if c.PathsVariable {
		paths = "variable"
	}
	preds, flow := "open", "open"
	if c.HiddenPredicates {
		preds = "hidden"
	}
	if c.HiddenFlow {
		flow = "hidden"
	}
	return "<" + paths + ", " + preds + ", " + flow + ">"
}

// Report is the complexity characterization of one ILP.
type Report struct {
	ILP *core.ILP
	AC  AC
	CC  CC
}

// Options tunes the analysis.
type Options struct {
	// MinAtUses aggregates multiple reaching definitions at a use with MIN
	// (the literal reading of the paper's Figure 3 rule), yielding the
	// complexity of the adversary's easiest path — which classifies any
	// value reachable from a constant initialization as Constant. The
	// default (false) uses MAX, matching the paper's worked example
	// (ILP④ = <Polynomial, 4, 2>) and its definition
	// AC(f_ILP) = MAX over paths. The difference is measured by the
	// min-vs-max ablation benchmark.
	MinAtUses bool
}

// Analyze characterizes every ILP of a split function with default options.
func Analyze(sf *core.SplitFunc) []Report { return AnalyzeOpts(sf, Options{}) }

// maxRounds bounds the fixpoint; the corpora and kernels need at most 3.
const maxRounds = 100

// AnalyzeOpts characterizes every ILP of a split function.
func AnalyzeOpts(sf *core.SplitFunc, opts Options) []Report {
	a := newAnalyzer(sf)
	a.opts = opts
	if !a.fixpoint(maxRounds) {
		panic(fmt.Sprintf("complexity: the propagation over %s did not converge in %d rounds", sf.Orig.QName(), maxRounds))
	}
	out := make([]Report, 0, len(sf.ILPs))
	for _, ilp := range sf.ILPs {
		out = append(out, Report{ILP: ilp, AC: a.ilpAC(ilp), CC: a.ilpCC(ilp)})
	}
	return out
}

type analyzer struct {
	opts   Options
	sf     *core.SplitFunc
	reach  *dataflow.Result
	roles  map[int]slicer.Role
	hidden map[*ir.Var]bool

	// observable, constDef and acDef are indexed by dataflow.Def.Index.
	// observable marks defs whose values the adversary can read directly
	// (computed in the open component, or definitely leaked).
	observable []bool
	// constDef marks observable defs of compile-time constants.
	constDef []bool
	acDef    []AC

	// names indexes this analysis's inputs; varLeaf and exprLeaf memoise
	// the input index of each variable and of each aggregate read, length
	// or call expression, so the fixpoint builds no name twice.
	names    *nameTable
	varLeaf  map[*ir.Var]int
	exprLeaf map[ir.Expr]int

	// enclosing and loopsOf are the function's shared enclosure tables
	// (slicer.Facts): statement ID to the if/while statements, and to the
	// whiles, around it. Every statement of the function has an entry.
	enclosing map[int][]ir.Stmt
	loopsOf   map[int][]*ir.WhileStmt
}

// newAnalyzer sets up the per-seed state over the function's shared facts;
// this is where a function's reaching definitions are first asked for, once
// however many of its seeds are analyzed.
func newAnalyzer(sf *core.SplitFunc) *analyzer {
	facts := slicer.FactsOf(sf.Orig)
	a := &analyzer{
		sf:        sf,
		roles:     sf.Slice.Roles,
		hidden:    sf.Slice.Hidden,
		names:     &nameTable{},
		varLeaf:   make(map[*ir.Var]int),
		exprLeaf:  make(map[ir.Expr]int),
		enclosing: facts.Enclosing,
		loopsOf:   facts.LoopsOf,
		reach:     facts.Reaching(),
	}
	n := len(a.reach.Defs)
	a.observable, a.constDef, a.acDef = make([]bool, n), make([]bool, n), make([]AC, n)
	a.classifyDefs()
	return a
}

// classifyDefs decides observability: a def is observable when its value is
// produced by the open component (any role other than RoleFull) or arrives
// from outside (parameters, globals, entry state), or when it is a hidden
// def that is definitely leaked at some ILP (the only def reaching a
// bare-variable leak site).
func (a *analyzer) classifyDefs() {
	for _, d := range a.reach.Defs {
		if d.Stmt == nil {
			// Entry defs: caller-visible state.
			a.observable[d.Index] = true
			continue
		}
		role := a.roles[d.Stmt.ID()]
		if !a.hidden[d.Var] || role == slicer.RoleSend {
			a.observable[d.Index] = true
			if as, ok := d.Stmt.(*ir.AssignStmt); ok {
				if _, isConst := as.Rhs.(*ir.Const); isConst {
					a.constDef[d.Index] = true
				}
			}
		}
	}
	// Definitely-leaked hidden defs.
	for _, ilp := range a.sf.ILPs {
		vr, ok := ilp.HiddenExpr.(*ir.VarRef)
		if !ok {
			continue
		}
		if defs := a.reach.DefsReaching(ilp.StmtID, vr.Var); len(defs) == 1 {
			a.observable[defs[0].Index] = true
		}
	}
}

// fixpoint iterates EVAL over all defs until the AC assignment stabilizes,
// for at most limit rounds, and reports whether it did.
func (a *analyzer) fixpoint(limit int) bool {
	for round := 0; round < limit; round++ {
		changed := false
		for _, d := range a.reach.Defs {
			if d.Stmt == nil || d.Implicit {
				continue
			}
			as, ok := d.Stmt.(*ir.AssignStmt)
			if !ok || ir.DefinedVar(as) != d.Var {
				continue
			}
			ac := a.evalExpr(as.Rhs, as.ID())
			if !ac.Equal(a.acDef[d.Index]) {
				a.acDef[d.Index] = ac
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// useAC is the paper's AC(u_v@n): the propagated complexity PC joined over
// the reaching definitions, with MAX by default and with the MIN of the
// paper's Figure 3 rule under Options.MinAtUses. at is the reading
// statement's ID.
func (a *analyzer) useAC(v *ir.Var, at int) AC {
	defs := a.reach.DefsReaching(at, v)
	if len(defs) == 0 {
		// Conservatively treat unknown flows as observable inputs.
		return a.varLeafAC(v)
	}
	var out AC
	first := true
	for _, d := range defs {
		pc := a.pc(d, at)
		switch {
		case first:
			out, first = pc, false
		case a.opts.MinAtUses:
			out = Min(out, pc)
		default:
			out = Max(out, pc)
		}
	}
	return out
}

// pc is the paper's PC(d_v@n', u_v@n): Constant for observable constants,
// Linear for other observable values, the def's own AC otherwise — raised
// when the def-use edge exits a loop nest. use is the reading statement's
// ID.
func (a *analyzer) pc(d *dataflow.Def, use int) AC {
	var out AC
	switch {
	case a.observable[d.Index] && a.constDef[d.Index]:
		out = ConstantAC()
	case a.observable[d.Index]:
		out = a.varLeafAC(d.Var)
	default:
		out = a.acDef[d.Index]
	}
	// RAISE for every loop containing the def but not the use.
	if d.Stmt != nil {
		for _, l := range a.loopsOf[d.Stmt.ID()] {
			if !a.inside(use, l) {
				out = Raise(out, a.iterAC(l))
			}
		}
	}
	return out
}

func (a *analyzer) inside(stmtID int, l *ir.WhileStmt) bool {
	if stmtID == l.ID() {
		return true
	}
	for _, w := range a.loopsOf[stmtID] {
		if w == l {
			return true
		}
	}
	return false
}

// iterAC estimates the arithmetic complexity of loop l's iteration count:
// the join of the complexities of the values its condition depends on, at
// least linear.
func (a *analyzer) iterAC(l *ir.WhileStmt) AC {
	out := AC{Type: Linear, Degree: 1}
	for _, v := range ir.ExprVars(l.Cond) {
		out = Max(out, a.useAC(v, l.ID()))
	}
	if out.Type == Arbitrary {
		return out
	}
	if out.Degree < 1 {
		out.Degree = 1
	}
	if out.Type < Linear {
		out.Type = Linear
	}
	return out
}

// evalExpr is the paper's EVAL: combines operand complexities according to
// the operator. at is the ID of the statement holding e.
func (a *analyzer) evalExpr(e ir.Expr, at int) AC {
	switch e := e.(type) {
	case *ir.Const:
		return ConstantAC()
	case *ir.VarRef:
		return a.useAC(e.Var, at)
	case *ir.Unary:
		x := a.evalExpr(e.X, at)
		if e.Op == token.NOT {
			return Arb(x)
		}
		return x
	case *ir.Binary:
		x := a.evalExpr(e.X, at)
		y := a.evalExpr(e.Y, at)
		switch e.Op {
		case token.PLUS, token.MINUS:
			return Add(x, y)
		case token.STAR:
			return Mul(x, y)
		case token.SLASH:
			return Div(x, y)
		default: // %, comparisons, && || — non-arithmetic operators
			return Arb(x, y)
		}
	case *ir.ConvertExpr:
		return a.evalExpr(e.X, at)
	case *ir.CondExpr:
		return Arb(a.evalExpr(e.C, at), a.evalExpr(e.T, at), a.evalExpr(e.F, at))
	case *ir.IndexExpr, *ir.FieldExpr:
		// Aggregate reads are observable inputs; inside a loop a different
		// element may flow in each iteration, so the input count varies.
		ac := a.exprLeafAC(e)
		if len(a.loopsOf[at]) > 0 {
			ac.Varying = true
		}
		return ac
	case *ir.LenExpr:
		// An array length is a single observable input even inside a loop
		// (the array object cannot change while the hidden call runs).
		return a.exprLeafAC(e)
	case *ir.CallExpr:
		// Call results are computed openly; they are observable inputs.
		return a.exprLeafAC(e)
	}
	return Arb()
}

// varLeafAC is the linear complexity over v as an observable input.
func (a *analyzer) varLeafAC(v *ir.Var) AC {
	i, ok := a.varLeaf[v]
	if !ok {
		i = a.names.id(v.String())
		a.varLeaf[v] = i
	}
	return a.names.leaf(i)
}

// exprLeafAC is the linear complexity over the value of e, an aggregate
// read, array length or call, as an observable input.
func (a *analyzer) exprLeafAC(e ir.Expr) AC {
	i, ok := a.exprLeaf[e]
	if !ok {
		i = a.names.id(ir.ExprString(e))
		a.exprLeaf[e] = i
	}
	return a.names.leaf(i)
}

// ilpAC computes AC(f_ILP) per the paper's output rule: for a
// bare-variable leak whose sole reaching definition is hidden, the leaked
// function is that definition's expression (AC of the def); otherwise the
// leaked expression is evaluated directly.
func (a *analyzer) ilpAC(ilp *core.ILP) AC {
	if _, ok := a.enclosing[ilp.StmtID]; !ok {
		return Arb()
	}
	if vr, ok := ilp.HiddenExpr.(*ir.VarRef); ok {
		defs := a.reach.DefsReaching(ilp.StmtID, vr.Var)
		if len(defs) == 1 && defs[0].Stmt != nil && a.roles[defs[0].Stmt.ID()] == slicer.RoleFull {
			d := defs[0]
			out := a.acDef[d.Index]
			for _, l := range a.loopsOf[d.Stmt.ID()] {
				if !a.inside(ilp.StmtID, l) {
					out = Raise(out, a.iterAC(l))
				}
			}
			return out
		}
	}
	return a.evalExpr(ilp.HiddenExpr, ilp.StmtID)
}

// ---------------------------------------------------------------------------
// Control-flow complexity

// contributingDefs returns the hidden definitions feeding the ILP's leaked
// expression, transitively through hidden def-use chains.
func (a *analyzer) contributingDefs(ilp *core.ILP) []*dataflow.Def {
	if _, ok := a.enclosing[ilp.StmtID]; !ok {
		return nil
	}
	seen := make([]bool, len(a.reach.Defs))
	var out []*dataflow.Def
	// add appends the hidden defs that reach e's hidden variables at the
	// statement with ID at.
	add := func(e ir.Expr, at int) {
		for _, v := range ir.ExprVars(e) {
			if !a.hidden[v] {
				continue
			}
			for _, d := range a.reach.DefsReaching(at, v) {
				if seen[d.Index] || d.Stmt == nil {
					continue
				}
				role := a.roles[d.Stmt.ID()]
				if role != slicer.RoleFull && role != slicer.RoleSend {
					continue // open def: the adversary sees it
				}
				seen[d.Index] = true
				out = append(out, d)
			}
		}
	}
	add(ilp.HiddenExpr, ilp.StmtID)
	for i := 0; i < len(out); i++ {
		if as, ok := out[i].Stmt.(*ir.AssignStmt); ok {
			add(as.Rhs, as.ID())
		}
	}
	return out
}

// predicateHidden reports whether construct st's predicate was moved to the
// hidden component.
func (a *analyzer) predicateHidden(st ir.Stmt) bool {
	if fr, ok := a.sf.Hidden.Constructs[st.ID()]; ok {
		return fr.HidesPredicate
	}
	return false
}

// flowHidden reports whether construct st's control flow was (partially or
// fully) moved to the hidden component.
func (a *analyzer) flowHidden(st ir.Stmt) bool {
	if fr, ok := a.sf.Hidden.Constructs[st.ID()]; ok {
		return fr.HidesFlow
	}
	return false
}

func (a *analyzer) ilpCC(ilp *core.ILP) CC {
	cc := CC{Paths: 1}
	if ilp.Frag.HidesPredicate {
		cc.HiddenPredicates = true
	}
	if ilp.Frag.HidesFlow {
		cc.HiddenFlow = true
	}
	if ilp.Frag.HasLoop {
		cc.PathsVariable = true
	}
	branches := 0
	for _, d := range a.contributingDefs(ilp) {
		for _, en := range a.enclosing[d.Stmt.ID()] {
			switch en := en.(type) {
			case *ir.WhileStmt:
				if a.predicateHidden(en) {
					cc.PathsVariable = true
					cc.HiddenPredicates = true
				}
				if a.flowHidden(en) {
					cc.HiddenFlow = true
				}
			case *ir.IfStmt:
				branches++
				if a.predicateHidden(en) {
					cc.HiddenPredicates = true
				}
				if a.flowHidden(en) {
					cc.HiddenFlow = true
				}
			}
		}
	}
	if !cc.PathsVariable {
		if branches > 20 {
			branches = 20
		}
		cc.Paths = 1 << branches
	}
	return cc
}
