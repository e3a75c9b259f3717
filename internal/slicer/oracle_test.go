package slicer

import (
	"slicehide/internal/cfg"
	"slicehide/internal/dataflow"
	"slicehide/internal/ir"
)

// OracleSlice is what Compute returned before a function's analyses were
// shared between its seeds: the slice plus a CFG and reaching definitions
// built for this seed alone.
type OracleSlice struct {
	Slice
	Graph *cfg.Graph
	Reach *dataflow.Result
}

// OracleCompute is the per-seed slicer kept as the reference
// implementation: a fresh cfg.Build and dataflow.Reaching, the assignment
// list collected again, the hidden set as an iterate-until-stable fixpoint
// over it, and every statement of the function classified. It reads nothing
// cached on f.
func OracleCompute(f *ir.Func, seed *ir.Var, policy Policy) *OracleSlice {
	g := cfg.Build(f)
	s := &OracleSlice{
		Slice: Slice{
			Func:   f,
			Seed:   seed,
			Hidden: map[*ir.Var]bool{seed: true},
			Roles:  make(map[int]Role),
			Stmts:  make(map[int]ir.Stmt),
		},
		Graph: g,
		Reach: dataflow.Reaching(g),
	}

	type assign struct {
		stmt *ir.AssignStmt
		lhs  *ir.Var // nil if not a variable target
	}
	var assigns []assign
	ir.WalkStmts(f.Body, func(st ir.Stmt) bool {
		if a, ok := st.(*ir.AssignStmt); ok {
			var lhs *ir.Var
			switch t := a.Lhs.(type) {
			case *ir.VarTarget:
				lhs = t.Var
			case *ir.FieldTarget:
				lhs = t.FieldVar
			}
			assigns = append(assigns, assign{stmt: a, lhs: lhs})
		}
		return true
	})

	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if a.lhs == nil || s.Hidden[a.lhs] || !policy.HideableVar(a.lhs) {
				continue
			}
			if ir.HasCall(a.stmt.Rhs) {
				continue
			}
			if rhsReferencesHidden(a.stmt.Rhs, s.Hidden) {
				s.Hidden[a.lhs] = true
				changed = true
			}
		}
	}

	ir.WalkStmts(f.Body, func(st ir.Stmt) bool {
		role := classify(st, s.Hidden, policy)
		if role != RoleNone {
			s.Roles[st.ID()] = role
			s.Stmts[st.ID()] = st
		}
		return true
	})
	return s
}

// OracleBestSeed is BestSeed over OracleCompute.
func OracleBestSeed(f *ir.Func, policy Policy) (*ir.Var, *OracleSlice) {
	var bestVar *ir.Var
	var bestSlice *OracleSlice
	for _, v := range f.Locals {
		if !policy.HideableVar(v) {
			continue
		}
		sl := OracleCompute(f, v, policy)
		if bestSlice == nil || sl.Size() > bestSlice.Size() {
			bestVar, bestSlice = v, sl
		}
	}
	return bestVar, bestSlice
}
