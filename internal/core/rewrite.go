package core

import (
	"fmt"

	"slicehide/internal/ir"
	"slicehide/internal/lang/token"
	"slicehide/internal/lang/types"
	"slicehide/internal/slicer"
)

// ---------------------------------------------------------------------------
// Expression predicates

// containsHidden reports whether e reads any hidden (scalar) variable.
func (s *splitter) containsHidden(e ir.Expr) bool {
	for _, v := range ir.ExprVars(e) {
		if s.hidden[v] {
			return true
		}
	}
	return false
}

// evalHideable reports whether e's root can be evaluated inside the hidden
// component (non-hideable subtrees become arguments evaluated openly).
func evalHideable(e ir.Expr) bool {
	switch e.(type) {
	case *ir.Const, *ir.VarRef, *ir.Unary, *ir.Binary, *ir.CondExpr, *ir.ConvertExpr:
		return true
	}
	return false
}

// pure reports whether the whole tree of e consists of constants, variable
// reads, and operators — no array/field/len reads, calls, or allocations.
// Pure expressions are safe to evaluate repeatedly inside a hidden construct
// (open scalar leaves are snapshot at call time; the open component is
// blocked during the call, so the snapshot stays valid).
func pure(e ir.Expr) bool {
	ok := true
	ir.WalkExpr(e, func(x ir.Expr) {
		switch x.(type) {
		case *ir.Const, *ir.VarRef, *ir.Unary, *ir.Binary, *ir.CondExpr, *ir.ConvertExpr:
		default:
			ok = false
		}
	})
	return ok
}

// safeToHide reports whether evaluating e inside the hidden component
// preserves trap behavior. Non-hideable subexpressions (array/field reads,
// len) become arguments evaluated eagerly at the call site; if such a
// subexpression sits in a lazily-evaluated position (right of && / ||, or a
// conditional arm), hoisting it could introduce a runtime error the original
// program guards against — so hiding is refused and the rewrite descends.
func safeToHide(e ir.Expr) bool { return safeH(e, false) }

func safeH(e ir.Expr, underLazy bool) bool {
	switch e := e.(type) {
	case *ir.Const, *ir.VarRef:
		return true
	case *ir.Unary:
		return safeH(e.X, underLazy)
	case *ir.ConvertExpr:
		return safeH(e.X, underLazy)
	case *ir.Binary:
		if e.Op == token.AND || e.Op == token.OR {
			return safeH(e.X, underLazy) && safeH(e.Y, true)
		}
		return safeH(e.X, underLazy) && safeH(e.Y, underLazy)
	case *ir.CondExpr:
		return safeH(e.C, underLazy) && safeH(e.T, true) && safeH(e.F, true)
	default:
		// Becomes an argument; only safe when not under a lazy operator.
		return !underLazy
	}
}

// ---------------------------------------------------------------------------
// Fragment construction

// fragBuilder accumulates the open-side argument expressions of one
// fragment while the hidden-side body is being rewritten.
type fragBuilder struct {
	s        *splitter
	frag     *Fragment
	openArgs []ir.Expr
	argIdx   map[string]int
}

func (s *splitter) builder(fr *Fragment) *fragBuilder {
	return &fragBuilder{s: s, frag: fr, argIdx: make(map[string]int)}
}

// arg registers an open-side expression as a fragment argument and returns
// the hidden-side placeholder reference. Identical argument expressions are
// deduplicated (they are pure reads; evaluating once is equivalent).
func (fb *fragBuilder) arg(open ir.Expr) ir.Expr {
	key := ir.ExprString(open)
	if i, ok := fb.argIdx[key]; ok {
		return &ir.VarRef{Var: fb.s.comp.argVar(fb.frag, i)}
	}
	i := len(fb.openArgs)
	fb.openArgs = append(fb.openArgs, open)
	fb.argIdx[key] = i
	return &ir.VarRef{Var: fb.s.comp.argVar(fb.frag, i)}
}

// thisField returns the hidden field variable when e reads a hidden field
// of the implicit receiver, or nil.
func (s *splitter) thisField(e ir.Expr) *ir.Var {
	fe, ok := e.(*ir.FieldExpr)
	if !ok || fe.FieldVar == nil || !s.hidden[fe.FieldVar] {
		return nil
	}
	if _, isThis := fe.Obj.(*ir.ThisExpr); isThis {
		return fe.FieldVar
	}
	return nil
}

// failSplit records an unsupported construct; Split reports it.
func (s *splitter) failSplit(format string, args ...any) {
	if s.splitErr == nil {
		s.splitErr = fmt.Errorf(format, args...)
	}
}

// rewriteHidden converts an original expression into its hidden-side form:
// hidden variables stay as direct references, everything the hidden side
// cannot evaluate (open scalars, array/field reads, len, calls) becomes an
// argument evaluated by the open component at the call site.
func (fb *fragBuilder) rewriteHidden(e ir.Expr) ir.Expr {
	if fv := fb.s.thisField(e); fv != nil {
		// Hidden fields of the receiver resolve against the activation's
		// per-object store; fragments reference them directly.
		return &ir.VarRef{Var: fv}
	}
	switch e := e.(type) {
	case *ir.Const:
		return ir.CloneExpr(e)
	case *ir.VarRef:
		if fb.s.hidden[e.Var] {
			return &ir.VarRef{Var: e.Var}
		}
		return fb.arg(fb.s.rewriteOpen(e))
	case *ir.Unary:
		return &ir.Unary{Op: e.Op, X: fb.rewriteHidden(e.X)}
	case *ir.Binary:
		return &ir.Binary{Op: e.Op, X: fb.rewriteHidden(e.X), Y: fb.rewriteHidden(e.Y)}
	case *ir.CondExpr:
		return &ir.CondExpr{C: fb.rewriteHidden(e.C), T: fb.rewriteHidden(e.T), F: fb.rewriteHidden(e.F)}
	case *ir.ConvertExpr:
		return &ir.ConvertExpr{ToFloat: e.ToFloat, X: fb.rewriteHidden(e.X)}
	default:
		// Array reads, field reads, len, calls, allocations: evaluated
		// openly (with fetches for hidden subexpressions) and shipped in.
		return fb.arg(fb.s.rewriteOpen(e))
	}
}

// evalFrag creates a FragEval (or FragFetch for a bare variable) fragment
// returning the value of hidden expression e, and the open-side call.
func (s *splitter) evalFrag(e ir.Expr, kind ILPKind, note string) *ir.HCallExpr {
	// Reuse fetch fragments per variable. A bare-variable eval is a fetch;
	// other kinds (e.g. a case-iii leak of a single variable) keep their
	// classification for the §3 ILP inventory.
	if vr, ok := e.(*ir.VarRef); ok && s.hidden[vr.Var] {
		fr := s.comp.fetchFrag(vr.Var, "")
		site := &ir.HCallExpr{FragID: fr.ID, Leaks: true}
		if kind == ILPExpr {
			kind = ILPFetch
		}
		s.addILP(kind, fr, site, e)
		return site
	}
	fr := s.comp.newFragment(FragEval, note)
	fb := s.builder(fr)
	hiddenExpr := fb.rewriteHidden(e)
	fr.Body = []ir.Stmt{s.comp.shell.NewReturn(token.Pos{}, hiddenExpr)}
	site := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, Leaks: true}
	s.addILP(kind, fr, site, e)
	return site
}

// updateFrag returns the fragment that stores its single argument into
// hidden variable v. Any variable with an update fragment is only partially
// hidden: its value is sometimes computed openly.
func (s *splitter) updateFrag(v *ir.Var) *Fragment {
	if s.partial == nil {
		s.partial = make(map[*ir.Var]bool)
	}
	s.partial[v] = true
	return s.comp.updateFrag(v, "")
}

func (s *splitter) addILP(kind ILPKind, fr *Fragment, site *ir.HCallExpr, hiddenExpr ir.Expr) {
	stmtID := -1
	if s.curStmt != nil {
		stmtID = s.curStmt.ID()
	}
	s.ilps = append(s.ilps, &ILP{
		ID:         len(s.ilps),
		Kind:       kind,
		Func:       s.orig.QName(),
		Frag:       fr,
		Site:       site,
		HiddenExpr: ir.CloneExpr(hiddenExpr),
		StmtID:     stmtID,
		InLoop:     s.loopDepth > 0,
	})
}

// rewriteOpen produces the open-side form of e: maximal hideable
// subexpressions that read hidden variables are replaced by H(...) calls
// whose fragments evaluate them on the secure device; everything else is
// copied with children rewritten.
func (s *splitter) rewriteOpen(e ir.Expr) ir.Expr { return ir.MapExpr(e, s.openHook) }

// openHook is rewriteOpen's replacement rule for one subtree, or nil to
// copy it and go on into its children.
func (s *splitter) openHook(e ir.Expr) ir.Expr {
	if evalHideable(e) && s.containsHidden(e) && safeToHide(e) {
		return s.evalFrag(e, ILPExpr, "eval "+ir.ExprString(e))
	}
	if fv := s.thisField(e); fv != nil {
		// Open read of a hidden receiver field: fetch it.
		fr := s.comp.fetchFrag(fv, "")
		site := &ir.HCallExpr{FragID: fr.ID, Leaks: true}
		s.addILP(ILPFetch, fr, site, e)
		return site
	}
	if fe, ok := e.(*ir.FieldExpr); ok && fe.FieldVar != nil && s.hidden[fe.FieldVar] {
		s.failSplit("core: %s reads hidden field %s of another instance; cross-instance hidden-field access inside a split function is not supported",
			s.orig.QName(), fe.FieldVar)
		return ir.CloneExpr(e)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Movability (control-flow hiding eligibility)

// movableStmt reports whether st can move, as part of an enclosing
// construct, entirely into the hidden component. inLoop counts loop nesting
// inside the candidate construct (break/continue may only move if their
// target loop moves too).
func (s *splitter) movableStmt(st ir.Stmt, inLoop int) bool {
	switch st := st.(type) {
	case *ir.AssignStmt:
		if s.sl.Roles[st.ID()] != slicer.RoleFull {
			return false
		}
		if _, ok := st.Lhs.(*ir.VarTarget); !ok {
			// Receiver-field targets could move too, but their rhs purity
			// analysis would need field-read tracking; keep them at
			// statement granularity.
			return false
		}
		return pure(st.Rhs)
	case *ir.IfStmt:
		if !pure(st.Cond) {
			return false
		}
		return s.movableStmts(st.Then, inLoop) && s.movableStmts(st.Else, inLoop)
	case *ir.WhileStmt:
		if !pure(st.Cond) {
			return false
		}
		return s.movableStmts(st.Body, inLoop+1) && s.movableStmts(st.Post, inLoop+1)
	case *ir.BreakStmt, *ir.ContinueStmt:
		return inLoop > 0
	}
	return false
}

func (s *splitter) movableStmts(stmts []ir.Stmt, inLoop int) bool {
	for _, st := range stmts {
		if !s.movableStmt(st, inLoop) {
			return false
		}
	}
	return true
}

// hasHiddenWork reports whether the subtree rooted at st contains any
// statement touched by the slice or a hidden-variable read in a condition.
func (s *splitter) hasHiddenWork(st ir.Stmt) bool {
	found := false
	ir.WalkStmts([]ir.Stmt{st}, func(x ir.Stmt) bool {
		if s.sl.Roles[x.ID()] != slicer.RoleNone {
			found = true
		}
		return !found
	})
	return found
}

// transformMovable clones a fully movable statement list into hidden-side
// form under the fragment builder (hidden variables direct, open leaves as
// arguments, statement IDs from the hidden shell).
func (s *splitter) transformMovable(fb *fragBuilder, stmts []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(stmts))
	sh := s.comp.shell
	for _, st := range stmts {
		switch st := st.(type) {
		case *ir.AssignStmt:
			vt := st.Lhs.(*ir.VarTarget)
			out = append(out, sh.NewAssign(st.Pos(), &ir.VarTarget{Var: vt.Var}, fb.rewriteHidden(st.Rhs)))
		case *ir.IfStmt:
			out = append(out, sh.NewIf(st.Pos(), fb.rewriteHidden(st.Cond),
				s.transformMovable(fb, st.Then), s.transformMovable(fb, st.Else)))
		case *ir.WhileStmt:
			out = append(out, sh.NewWhile(st.Pos(), fb.rewriteHidden(st.Cond),
				s.transformMovable(fb, st.Body), s.transformMovable(fb, st.Post)))
		case *ir.BreakStmt:
			out = append(out, sh.NewBreak(st.Pos()))
		case *ir.ContinueStmt:
			out = append(out, sh.NewContinue(st.Pos()))
		default:
			panic(fmt.Sprintf("core: transformMovable: unexpected %T", st))
		}
	}
	return out
}

// containsLoop reports whether the statement list contains a loop.
func containsLoop(stmts []ir.Stmt) bool {
	found := false
	ir.WalkStmts(stmts, func(x ir.Stmt) bool {
		if _, ok := x.(*ir.WhileStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// condTemp returns a fresh fragment-local temporary used to capture a
// predicate value before a hidden branch body may overwrite its inputs.
func (s *splitter) condTemp() *ir.Var {
	s.nextTemp++
	return &ir.Var{Name: fmt.Sprintf("$p%d", s.nextTemp), Kind: ir.VarLocal, Type: types.BoolType}
}
