package core

import (
	"fmt"
	"slices"
	"sort"

	"slicehide/internal/ir"
)

// GlobalsComponent is the name of the shared component that stores hidden
// global variables. It has a single implicit activation shared by every
// function.
const GlobalsComponent = "$globals"

// ClassComponentPrefix prefixes the names of the shared components that
// store hidden class fields. The component for class C is "$class:C"; its
// activations are the object instance ids assigned by the open component
// at `new C()` time.
const ClassComponentPrefix = "$class:"

// SharedComponent is hidden state that outlives one activation, kept the
// paper's fallback way (§2.2): a hidden global lives in "$globals", a hidden
// field of class C in "$class:C", and every unsplit function that touches
// one gets a fetch or update call on the component instead ("if the
// function does not meet the required characteristics, it is not sliced;
// instead ... an appropriate call to a hidden function is made").
type SharedComponent struct {
	// Component holds the variables and their fetch/update fragments; calls
	// on a class component carry the target object's instance id.
	Component *HiddenComponent
	// Init maps each hidden global to its constant initializer. It is nil
	// for a class component.
	Init map[*ir.Var]*ir.Const
	// Rewritten lists the functions whose references were replaced by
	// fetch/update calls, once per split that hid what they touch.
	Rewritten []string
	// ILPs are the fetches in rewritten functions. They belong to no
	// split's complexity analysis; Result.AllILPs counts them.
	ILPs []*ILP
}

// shared returns (creating on first use) the component that stores v, a
// global or a field.
func (r *Result) shared(v *ir.Var) *SharedComponent {
	if v.Kind == ir.VarGlobal {
		if r.Globals == nil {
			r.Globals = &SharedComponent{Component: newComponent(GlobalsComponent, GlobalsComponent), Init: make(map[*ir.Var]*ir.Const)}
		}
		return r.Globals
	}
	if r.Fields == nil {
		r.Fields = make(map[string]*SharedComponent)
	}
	c := r.Fields[v.Class]
	if c == nil {
		name := ClassComponentPrefix + v.Class
		c = &SharedComponent{Component: newComponent(name, name)}
		r.Fields[v.Class] = c
	}
	return c
}

// applyFallback moves sf's hidden globals and fields into their shared
// components and rewrites, once, every other function that references any
// of them. A hidden global must have a constant (or no) initializer, and no
// other split function may touch what sf hides.
func applyFallback(res *Result, prog *ir.Program, sf *SplitFunc, specs []Spec) error {
	hidden := map[*ir.Var]*SharedComponent{}
	for _, v := range sf.Hidden.Vars {
		if v.Kind != ir.VarGlobal && v.Kind != ir.VarField {
			continue
		}
		// v is new to its component: an earlier split that hid v would
		// have rejected sf, which touches v.
		c := res.shared(v)
		if v.Kind == ir.VarGlobal {
			init, err := globalInit(prog, v)
			if err != nil {
				return err
			}
			c.Init[v] = init
		}
		c.Component.Vars = append(c.Component.Vars, v)
		sortVars(c.Component.Vars)
		hidden[v] = c
	}
	if len(hidden) == 0 {
		return nil
	}
	names := slices.Clone(prog.Order)
	sort.Strings(names)
	for _, qn := range names {
		if qn == sf.Orig.QName() {
			continue
		}
		touched := touches(prog.Funcs[qn], hidden)
		if len(touched) == 0 {
			continue
		}
		if slices.ContainsFunc(specs, func(sp Spec) bool { return sp.Func == qn }) {
			if slices.Contains(touched, res.Globals) {
				return fmt.Errorf("core: global %s is hidden by %s but %s is also being split; hide a global from at most one split function",
					firstOf(hidden, ir.VarGlobal), sf.Orig.QName(), qn)
			}
			return fmt.Errorf("core: field %s is hidden by %s but %s (which references it) is also being split",
				firstOf(hidden, ir.VarField), sf.Orig.QName(), qn)
		}
		// Rewrite the current open version: an earlier split's pass may
		// already have rewritten it.
		rw := &refRewriter{hidden: hidden, fnName: qn, ilps: make(map[*SharedComponent]int)}
		res.Open.Funcs[qn] = rw.rewrite(res.Open.Funcs[qn])
		for _, c := range touched {
			c.Rewritten = append(c.Rewritten, qn)
		}
	}
	return nil
}

// globalInit returns the constant a hidden global starts from.
func globalInit(prog *ir.Program, g *ir.Var) (*ir.Const, error) {
	init := ir.Int(0)
	for _, pg := range prog.Globals {
		if pg.Var != g {
			continue
		}
		switch e := pg.Init.(type) {
		case nil:
			init = zeroConst(g)
		case *ir.Const:
			c := *e
			init = &c
		default:
			return nil, fmt.Errorf("core: hidden global %s has a non-constant initializer; not supported", g)
		}
	}
	return init, nil
}

func zeroConst(v *ir.Var) *ir.Const {
	switch ir.ZeroKindOf(v) {
	case ir.ZeroFloat:
		return ir.Float(0)
	case ir.ZeroBool:
		return ir.Bool(false)
	}
	return ir.Int(0)
}

// firstOf returns the hidden variable of the given kind that sorts first.
func firstOf(hidden map[*ir.Var]*SharedComponent, kind ir.VarKind) *ir.Var {
	var first *ir.Var
	for v := range hidden {
		if v.Kind == kind && (first == nil || v.String() < first.String()) {
			first = v
		}
	}
	return first
}

// touches returns the components whose variables f reads or writes, in
// first-reference order.
func touches(f *ir.Func, hidden map[*ir.Var]*SharedComponent) []*SharedComponent {
	var out []*SharedComponent
	add := func(v *ir.Var) {
		if c := hidden[v]; c != nil && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	ir.WalkStmts(f.Body, func(st ir.Stmt) bool {
		add(ir.DefinedVar(st))
		for _, v := range ir.UsedVars(st) {
			add(v)
		}
		return true
	})
	return out
}

// refRewriter copies an unsplit function, replacing each read and write of
// a shared component's variable with a fetch or update call on it. The
// input may already hold H(...) calls from an earlier split's pass.
type refRewriter struct {
	hidden map[*ir.Var]*SharedComponent
	fnName string
	out    *ir.Func
	// ilps counts the fetches this function has gained per component; it
	// numbers their ILPs.
	ilps map[*SharedComponent]int
}

func (rw *refRewriter) rewrite(f *ir.Func) *ir.Func {
	rw.out = &ir.Func{
		Name:   f.Name,
		Class:  f.Class,
		Params: f.Params,
		Locals: f.Locals,
		Result: f.Result,
	}
	rw.out.Body = rw.stmts(f.Body)
	return rw.out
}

func (rw *refRewriter) stmts(list []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(list))
	for _, st := range list {
		out = append(out, rw.stmt(st))
	}
	return out
}

func (rw *refRewriter) expr(e ir.Expr) ir.Expr { return ir.MapExpr(e, rw.hook) }

func (rw *refRewriter) stmt(st ir.Stmt) ir.Stmt {
	switch st := st.(type) {
	case *ir.AssignStmt:
		var v *ir.Var
		var obj ir.Expr
		switch t := st.Lhs.(type) {
		case *ir.VarTarget:
			v = t.Var
		case *ir.FieldTarget:
			v, obj = t.FieldVar, t.Obj
		}
		if c := rw.hidden[v]; c != nil {
			fr := c.Component.updateFrag(v, v.Kind.String()+" ")
			call := &ir.HCallExpr{
				FragID:    fr.ID,
				Component: c.Component.Func,
				Obj:       rw.expr(obj),
				Args:      []ir.Expr{rw.expr(st.Rhs)},
				NoReply:   true,
			}
			return rw.out.NewHCallStmt(st.Pos(), call)
		}
		return rw.out.NewAssign(st.Pos(), ir.MapTarget(st.Lhs, rw.hook), rw.expr(st.Rhs))
	case *ir.IfStmt:
		return rw.out.NewIf(st.Pos(), rw.expr(st.Cond), rw.stmts(st.Then), rw.stmts(st.Else))
	case *ir.WhileStmt:
		return rw.out.NewWhile(st.Pos(), rw.expr(st.Cond), rw.stmts(st.Body), rw.stmts(st.Post))
	case *ir.ReturnStmt:
		return rw.out.NewReturn(st.Pos(), rw.expr(st.Value))
	case *ir.BreakStmt:
		return rw.out.NewBreak(st.Pos())
	case *ir.ContinueStmt:
		return rw.out.NewContinue(st.Pos())
	case *ir.PrintStmt:
		args := make([]ir.Expr, len(st.Args))
		for i, a := range st.Args {
			args[i] = rw.expr(a)
		}
		return rw.out.NewPrint(st.Pos(), args)
	case *ir.CallStmt:
		return rw.out.NewCallStmt(st.Pos(), rw.expr(st.Call).(*ir.CallExpr))
	case *ir.HCallStmt:
		return rw.out.NewHCallStmt(st.Pos(), rw.expr(st.Call).(*ir.HCallExpr))
	}
	panic(fmt.Sprintf("core: ref rewrite: unexpected %T", st))
}

// hook replaces a read of a shared component's variable with a fetch, an
// ILP of that component.
func (rw *refRewriter) hook(e ir.Expr) ir.Expr {
	var v *ir.Var
	var obj ir.Expr
	switch e := e.(type) {
	case *ir.VarRef:
		v = e.Var
	case *ir.FieldExpr:
		v, obj = e.FieldVar, e.Obj
	}
	c := rw.hidden[v]
	if c == nil {
		return nil
	}
	fr := c.Component.fetchFrag(v, v.Kind.String()+" ")
	site := &ir.HCallExpr{FragID: fr.ID, Component: c.Component.Func, Obj: rw.expr(obj), Leaks: true}
	c.ILPs = append(c.ILPs, &ILP{
		ID:         rw.ilps[c],
		Kind:       ILPFetch,
		Func:       rw.fnName,
		Frag:       fr,
		Site:       site,
		HiddenExpr: ir.CloneExpr(e),
		StmtID:     -1,
	})
	rw.ilps[c]++
	return site
}
