package core

import (
	"fmt"

	"slicehide/internal/ir"
)

// batchCalls merges runs of adjacent non-leaking hidden calls in the open
// component into single round trips (the fetch/update-batching optimization
// measured by BenchmarkAblationBatching). Merging is sound because a
// non-leaking H(...) statement has no open-side effect: between two
// adjacent ones no open state changes, so the later call's arguments can be
// evaluated at the earlier call's position. Fragments whose bodies return
// early (hidden branches that report a predicate) are never merged — an
// early return would skip the rest of a combined body.
func (s *splitter) batchCalls(stmts []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(stmts))
	var run []*ir.HCallStmt
	flush := func() {
		if len(run) == 0 {
			return
		}
		if len(run) == 1 {
			out = append(out, run[0])
		} else {
			out = append(out, s.mergeRun(run))
		}
		run = nil
	}
	for _, st := range stmts {
		switch st := st.(type) {
		case *ir.HCallStmt:
			if s.batchable(st) {
				run = append(run, st)
				continue
			}
			flush()
			out = append(out, st)
		case *ir.IfStmt:
			flush()
			out = append(out, s.open.NewIf(st.Pos(), st.Cond, s.batchCalls(st.Then), s.batchCalls(st.Else)))
		case *ir.WhileStmt:
			flush()
			out = append(out, s.open.NewWhile(st.Pos(), st.Cond, s.batchCalls(st.Body), s.batchCalls(st.Post)))
		default:
			flush()
			out = append(out, st)
		}
	}
	flush()
	return out
}

// batchable reports whether the call may join a merged run: it must target
// the function's own component, leak nothing, carry argument expressions
// without hidden fetches (a fetch inside an argument is itself a round trip
// whose ordering we preserve), and its fragment body must not return.
func (s *splitter) batchable(st *ir.HCallStmt) bool {
	if st.Call.Leaks || st.Call.Component != "" {
		return false
	}
	for _, a := range st.Call.Args {
		nested := false
		ir.WalkExpr(a, func(x ir.Expr) {
			if _, ok := x.(*ir.HCallExpr); ok {
				nested = true
			}
		})
		if nested {
			return false
		}
	}
	fr := s.comp.Frags[st.Call.FragID]
	return fr != nil && !bodyReturns(fr.Body)
}

func bodyReturns(stmts []ir.Stmt) bool {
	found := false
	ir.WalkStmts(stmts, func(st ir.Stmt) bool {
		if _, ok := st.(*ir.ReturnStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// mergeRun builds one fragment executing the run's fragments in order.
// Argument placeholders are per-fragment *ir.Var identities, so bodies can
// be concatenated without renaming.
func (s *splitter) mergeRun(run []*ir.HCallStmt) ir.Stmt {
	fr := s.comp.newFragment(FragExec, fmt.Sprintf("batch of %d calls", len(run)))
	var args []ir.Expr
	for _, st := range run {
		sub := s.comp.Frags[st.Call.FragID]
		fr.Body = append(fr.Body, sub.Body...)
		fr.ArgVars = append(fr.ArgVars, sub.ArgVars...)
		args = append(args, st.Call.Args...)
		fr.HidesPredicate = fr.HidesPredicate || sub.HidesPredicate
		fr.HidesFlow = fr.HidesFlow || sub.HidesFlow
		fr.HasLoop = fr.HasLoop || sub.HasLoop
	}
	call := &ir.HCallExpr{FragID: fr.ID, Args: args, NoReply: true}
	return s.open.NewHCallStmt(run[0].Pos(), call)
}
