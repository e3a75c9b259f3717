package core

import (
	"fmt"

	"slicehide/internal/ir"
	"slicehide/internal/lang/token"
	"slicehide/internal/slicer"
)

// notOp is the logical-negation operator used when inverting leaked
// predicate values.
const notOp = token.NOT

// emitStmts rewrites a statement list into its open-component form,
// creating hidden fragments as a side effect.
func (s *splitter) emitStmts(stmts []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(stmts))
	for _, st := range stmts {
		out = append(out, s.emitStmt(st)...)
	}
	return out
}

func (s *splitter) emitStmt(st ir.Stmt) []ir.Stmt {
	s.curStmt = st
	switch st := st.(type) {
	case *ir.AssignStmt:
		return s.emitAssign(st)
	case *ir.IfStmt:
		return s.emitIf(st)
	case *ir.WhileStmt:
		return s.emitWhile(st)
	case *ir.ReturnStmt:
		var v ir.Expr
		if st.Value != nil {
			v = s.rewriteOpen(st.Value)
		}
		return []ir.Stmt{s.open.NewReturn(st.Pos(), v)}
	case *ir.BreakStmt:
		return []ir.Stmt{s.open.NewBreak(st.Pos())}
	case *ir.ContinueStmt:
		return []ir.Stmt{s.open.NewContinue(st.Pos())}
	case *ir.PrintStmt:
		args := make([]ir.Expr, len(st.Args))
		for i, a := range st.Args {
			args[i] = s.rewriteOpen(a)
		}
		return []ir.Stmt{s.open.NewPrint(st.Pos(), args)}
	case *ir.CallStmt:
		call := s.rewriteOpen(st.Call).(*ir.CallExpr)
		return []ir.Stmt{s.open.NewCallStmt(st.Pos(), call)}
	}
	panic(fmt.Sprintf("core: emitStmt: unexpected %T", st))
}

func (s *splitter) emitAssign(st *ir.AssignStmt) []ir.Stmt {
	role := s.sl.Roles[st.ID()]
	// Demotions preserving trap behavior: a hidden evaluation whose hoisted
	// arguments sit under lazy operators is computed openly instead.
	if role == slicer.RoleFull && !safeToHide(st.Rhs) {
		role = slicer.RoleSend
	}
	if role == slicer.RoleLeak && (!evalHideable(st.Rhs) || !safeToHide(st.Rhs)) {
		role = slicer.RoleUse
	}
	switch role {
	case slicer.RoleFull:
		// Case (i): both sides move to Hf.
		hv, ok := s.hiddenTargetVar(st.Lhs)
		if !ok {
			return s.emitOpenAssign(st)
		}
		fr := s.comp.newFragment(FragExec, fmt.Sprintf("s%d: %s = %s", st.ID(), hv, ir.ExprString(st.Rhs)))
		fb := s.builder(fr)
		fr.Body = []ir.Stmt{s.comp.shell.NewAssign(st.Pos(), &ir.VarTarget{Var: hv}, fb.rewriteHidden(st.Rhs))}
		call := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, NoReply: true}
		return []ir.Stmt{s.open.NewHCallStmt(st.Pos(), call)}
	case slicer.RoleSend:
		// Case (ii): rhs computed openly, value sent to Hf.
		hv, ok := s.hiddenTargetVar(st.Lhs)
		if !ok {
			return s.emitOpenAssign(st)
		}
		fr := s.updateFrag(hv)
		call := &ir.HCallExpr{FragID: fr.ID, Args: []ir.Expr{s.rewriteOpen(st.Rhs)}, NoReply: true}
		return []ir.Stmt{s.open.NewHCallStmt(st.Pos(), call)}
	case slicer.RoleLeak:
		// Case (iii): rhs moves to Hf; the returned value is stored into the
		// open (aggregate) target — an ILP.
		site := s.evalFrag(st.Rhs, ILPLeakAssign, fmt.Sprintf("s%d leak", st.ID()))
		return []ir.Stmt{s.open.NewAssign(st.Pos(), ir.MapTarget(st.Lhs, s.openHook), site)}
	default:
		return s.emitOpenAssign(st)
	}
}

// hiddenTargetVar maps an assignment target whose storage is hidden to the
// variable the hidden side assigns: the variable itself, or the field
// variable for fields of the receiver. Cross-instance hidden-field stores
// are unsupported inside the split function.
func (s *splitter) hiddenTargetVar(t ir.Target) (*ir.Var, bool) {
	switch t := t.(type) {
	case *ir.VarTarget:
		return t.Var, true
	case *ir.FieldTarget:
		if t.FieldVar == nil || !s.hidden[t.FieldVar] {
			return nil, false
		}
		if _, isThis := t.Obj.(*ir.ThisExpr); isThis {
			return t.FieldVar, true
		}
		s.failSplit("core: %s assigns hidden field %s of another instance; cross-instance hidden-field access inside a split function is not supported",
			s.orig.QName(), t.FieldVar)
		return nil, false
	}
	return nil, false
}

// emitOpenAssign is case (iv): the statement stays open; hidden reads
// become fetch/eval calls.
func (s *splitter) emitOpenAssign(st *ir.AssignStmt) []ir.Stmt {
	return []ir.Stmt{s.open.NewAssign(st.Pos(), ir.MapTarget(st.Lhs, s.openHook), s.rewriteOpen(st.Rhs))}
}

func (s *splitter) emitIf(st *ir.IfStmt) []ir.Stmt {
	condHidden := s.containsHidden(st.Cond)
	thenM := s.movableStmts(st.Then, 0)
	elseM := s.movableStmts(st.Else, 0)
	if s.opts.NoControlFlowHiding {
		thenM, elseM = false, false
	}

	// Whole-construct hiding: predicate and both branches move to Hf; the
	// open component keeps a single opaque call. Constructs whose predicate
	// involves no hidden value stay in Of: moving them would add a round
	// trip per execution without hiding anything the adversary cannot
	// already evaluate.
	if !s.opts.NoControlFlowHiding && condHidden && s.hasHiddenWork(st) && pure(st.Cond) && thenM && elseM && len(st.Then)+len(st.Else) > 0 {
		fr := s.comp.newFragment(FragCond, fmt.Sprintf("s%d: hidden if", st.ID()))
		s.comp.Constructs[st.ID()] = fr
		fr.HidesFlow = true
		fr.HidesPredicate = true
		fb := s.builder(fr)
		body := s.comp.shell.NewIf(st.Pos(), fb.rewriteHidden(st.Cond),
			s.transformMovable(fb, st.Then), s.transformMovable(fb, st.Else))
		fr.HasLoop = containsLoop([]ir.Stmt{body})
		fr.Body = []ir.Stmt{body}
		call := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, NoReply: true}
		return []ir.Stmt{s.open.NewHCallStmt(st.Pos(), call)}
	}

	// Partial hiding: a hidden predicate with one fully movable branch.
	// The hidden fragment evaluates the predicate, executes the hidden
	// branch when appropriate, and returns the predicate value so the open
	// component can run its remaining branch (if-then-else degrades to
	// if-then in Of, §2.2).
	if condHidden && evalHideable(st.Cond) && safeToHide(st.Cond) && pure(st.Cond) {
		switch {
		case thenM && len(st.Then) > 0:
			fr := s.comp.newFragment(FragCond, fmt.Sprintf("s%d: hidden then-branch", st.ID()))
			s.comp.Constructs[st.ID()] = fr
			fr.HidesFlow = true
			fr.HidesPredicate = true
			fb := s.builder(fr)
			cond := fb.rewriteHidden(st.Cond)
			fr.HasLoop = containsLoop(st.Then)
			// The branch body may redefine variables the predicate reads;
			// capture the predicate value before executing the branch.
			tmp := s.condTemp()
			fr.Body = []ir.Stmt{
				s.comp.shell.NewAssign(st.Pos(), &ir.VarTarget{Var: tmp}, cond),
				s.comp.shell.NewIf(st.Pos(), &ir.VarRef{Var: tmp}, s.transformMovable(fb, st.Then), nil),
				s.comp.shell.NewReturn(st.Pos(), &ir.VarRef{Var: tmp}),
			}
			if len(st.Else) == 0 {
				call := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, NoReply: true}
				return []ir.Stmt{s.open.NewHCallStmt(st.Pos(), call)}
			}
			site := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, Leaks: true}
			s.addILP(ILPCond, fr, site, st.Cond)
			neg := &ir.Unary{Op: notOp, X: site}
			return []ir.Stmt{s.open.NewIf(st.Pos(), neg, s.emitStmts(st.Else), nil)}
		case elseM && len(st.Else) > 0:
			fr := s.comp.newFragment(FragCond, fmt.Sprintf("s%d: hidden else-branch", st.ID()))
			s.comp.Constructs[st.ID()] = fr
			fr.HidesFlow = true
			fr.HidesPredicate = true
			fb := s.builder(fr)
			cond := fb.rewriteHidden(st.Cond)
			fr.HasLoop = containsLoop(st.Else)
			tmp := s.condTemp()
			fr.Body = []ir.Stmt{
				s.comp.shell.NewAssign(st.Pos(), &ir.VarTarget{Var: tmp}, cond),
				s.comp.shell.NewIf(st.Pos(), &ir.Unary{Op: notOp, X: &ir.VarRef{Var: tmp}}, s.transformMovable(fb, st.Else), nil),
				s.comp.shell.NewReturn(st.Pos(), &ir.VarRef{Var: tmp}),
			}
			site := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, Leaks: true}
			s.addILP(ILPCond, fr, site, st.Cond)
			return []ir.Stmt{s.open.NewIf(st.Pos(), site, s.emitStmts(st.Then), nil)}
		}
	}

	// Predicate-only hiding (or open predicate): structure stays in Of.
	var cond ir.Expr
	if condHidden && evalHideable(st.Cond) && safeToHide(st.Cond) {
		fr := s.comp.newFragment(FragCond, fmt.Sprintf("s%d: hidden if-predicate", st.ID()))
		s.comp.Constructs[st.ID()] = fr
		fr.HidesPredicate = true
		fb := s.builder(fr)
		fr.Body = []ir.Stmt{s.comp.shell.NewReturn(st.Pos(), fb.rewriteHidden(st.Cond))}
		site := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, Leaks: true}
		s.addILP(ILPCond, fr, site, st.Cond)
		cond = site
	} else {
		cond = s.rewriteOpen(st.Cond)
	}
	return []ir.Stmt{s.open.NewIf(st.Pos(), cond, s.emitStmts(st.Then), s.emitStmts(st.Else))}
}

func (s *splitter) emitWhile(st *ir.WhileStmt) []ir.Stmt {
	condHidden := s.containsHidden(st.Cond)

	// Whole-loop hiding: condition, body, and post all move to Hf (only
	// when the predicate itself is part of the slice; see emitIf).
	if !s.opts.NoControlFlowHiding && condHidden && s.hasHiddenWork(st) && s.movableStmt(st, 0) {
		fr := s.comp.newFragment(FragExec, fmt.Sprintf("s%d: hidden loop", st.ID()))
		s.comp.Constructs[st.ID()] = fr
		fr.HidesFlow = true
		fr.HidesPredicate = true
		fr.HasLoop = true
		fb := s.builder(fr)
		fr.Body = []ir.Stmt{s.comp.shell.NewWhile(st.Pos(), fb.rewriteHidden(st.Cond),
			s.transformMovable(fb, st.Body), s.transformMovable(fb, st.Post))}
		call := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, NoReply: true}
		return []ir.Stmt{s.open.NewHCallStmt(st.Pos(), call)}
	}

	// Driver loop: the predicate is evaluated by Hf each iteration; the
	// mixed body stays in Of (this is the javac case in the paper: each
	// iteration ships fresh array elements to the hidden side).
	s.loopDepth++
	defer func() { s.loopDepth-- }()
	var cond ir.Expr
	if condHidden && evalHideable(st.Cond) && safeToHide(st.Cond) {
		fr := s.comp.newFragment(FragCond, fmt.Sprintf("s%d: hidden loop-predicate", st.ID()))
		s.comp.Constructs[st.ID()] = fr
		fr.HidesPredicate = true
		fb := s.builder(fr)
		fr.Body = []ir.Stmt{s.comp.shell.NewReturn(st.Pos(), fb.rewriteHidden(st.Cond))}
		site := &ir.HCallExpr{FragID: fr.ID, Args: fb.openArgs, Leaks: true}
		s.addILP(ILPCond, fr, site, st.Cond)
		cond = site
	} else {
		cond = s.rewriteOpen(st.Cond)
	}
	return []ir.Stmt{s.open.NewWhile(st.Pos(), cond, s.emitStmts(st.Body), s.emitStmts(st.Post))}
}
