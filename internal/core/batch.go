package core

import (
	"fmt"

	"slicehide/internal/ir"
)

// batchCalls merges runs of adjacent non-leaking hidden calls in the open
// component into single round trips. It is the splitter's last step, taken
// by every split. Merging is sound because a non-leaking H(...) statement
// has no open-side effect: between two adjacent ones no open state
// changes, so the later call's arguments can be evaluated at the earlier
// call's position. Fragments whose bodies return early (hidden branches
// that report a predicate) are never merged — an early return would skip
// the rest of a combined body — and a fragment joins a run at most once,
// since a second copy of its body would read the first copy's arguments.
func (s *splitter) batchCalls(stmts []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(stmts))
	var run []*ir.HCallStmt
	flush := func() {
		if len(run) == 1 {
			out = append(out, run[0])
		} else if len(run) > 1 {
			out = append(out, s.mergeRun(run))
		}
		run = nil
	}
	for _, st := range stmts {
		if call, ok := st.(*ir.HCallStmt); ok && s.batchable(call) {
			for _, prev := range run {
				if prev.Call.FragID == call.Call.FragID {
					flush()
					break
				}
			}
			run = append(run, call)
			continue
		}
		flush()
		switch st := st.(type) {
		case *ir.IfStmt:
			st.Then, st.Else = s.batchCalls(st.Then), s.batchCalls(st.Else)
		case *ir.WhileStmt:
			st.Body, st.Post = s.batchCalls(st.Body), s.batchCalls(st.Post)
		}
		out = append(out, st)
	}
	flush()
	return out
}

// batchable reports whether the call may join a merged run: it must target
// the function's own component, leak nothing, and its fragment body must
// not return. Its arguments may hold no hidden fetch, which is a round trip
// of its own, and no call: merging would evaluate them before the run's
// earlier fragments, and a called function may read the hidden state they
// write (the §2.2 fallback rewrites functions that read hidden globals).
func (s *splitter) batchable(st *ir.HCallStmt) bool {
	if st.Call.Leaks || st.Call.Component != "" {
		return false
	}
	for _, a := range st.Call.Args {
		if ir.HasCall(a) || ir.AnyExpr(a, func(x ir.Expr) bool { _, ok := x.(*ir.HCallExpr); return ok }) {
			return false
		}
	}
	fr := s.comp.Frags[st.Call.FragID]
	return fr != nil && !ir.AnyStmt(fr.Body, func(x ir.Stmt) bool { _, ok := x.(*ir.ReturnStmt); return ok })
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
		s.merged = append(s.merged, sub.ID)
	}
	call := &ir.HCallExpr{FragID: fr.ID, Args: args, NoReply: true}
	return s.open.NewHCallStmt(run[0].Pos(), call)
}

// dropMerged deletes each fragment a merged run took in that no H(...)
// statement names any more (a shared update fragment may keep a call
// outside every run). It runs after the last newFragment, so no fragment
// ID is reused; Constructs keeps the deleted fragments' flags for §3.
func (s *splitter) dropMerged() {
	named := make(map[int]bool)
	ir.WalkStmts(s.open.Body, func(st ir.Stmt) bool {
		if h, ok := st.(*ir.HCallStmt); ok && h.Call.Component == "" {
			named[h.Call.FragID] = true
		}
		return true
	})
	for _, id := range s.merged {
		if !named[id] {
			delete(s.comp.Frags, id)
		}
	}
}
