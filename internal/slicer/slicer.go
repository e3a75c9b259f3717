// Package slicer computes the forward data slices that seed the splitting
// transformation (paper §2.2, Step 1) and classifies every statement touched
// by the slice according to the paper's Step-3 case analysis.
//
// Slicing is performed at variable granularity: starting from a seed
// variable v, the hidden-variable set is the least fixpoint of
//
//	u ∈ Hidden if u = rhs is an assignment with a hideable scalar lhs,
//	rhs contains no call, and rhs references a variable in Hidden.
//
// A variable with any hidden definition must be maintained by the hidden
// component for every definition (otherwise the open component could not
// know where its current value lives), which is why propagation is by
// variable rather than by individual definition.
package slicer

import (
	"slicehide/internal/ir"
)

// Policy controls which variables may be hidden. The paper's base algorithm
// hides scalar locals of the split function; globals and class fields are
// the §2.2 extension.
type Policy struct {
	HideGlobals bool
	HideFields  bool
}

// HideableVar reports whether v's storage may be moved into the hidden
// component. Aggregates (arrays, objects, strings) are never hideable
// (paper restriction: limits hidden-side storage and communication).
func (p Policy) HideableVar(v *ir.Var) bool {
	if v == nil || !v.IsScalar() {
		return false
	}
	switch v.Kind {
	case ir.VarLocal, ir.VarParam:
		return true
	case ir.VarGlobal:
		return p.HideGlobals
	case ir.VarField:
		return p.HideFields
	}
	return false
}

// Role classifies a statement touched by the slice (paper Step 3).
type Role int

// Statement roles.
const (
	// RoleNone: statement untouched by the slice (case iv with no hidden uses).
	RoleNone Role = iota
	// RoleFull: both sides move to Hf (case i).
	RoleFull
	// RoleSend: lhs is hidden but rhs cannot move (contains a call); the rhs
	// is evaluated openly and the value sent to Hf (case ii).
	RoleSend
	// RoleLeak: rhs moves to Hf but lhs cannot (array element or other
	// unhideable target); the hidden side returns the value — an ILP
	// (case iii).
	RoleLeak
	// RoleUse: the statement stays open but reads hidden variables, which
	// must be fetched from Hf — each fetch is an ILP (case iv with hidden
	// uses; also returns, prints, call arguments).
	RoleUse
	// RoleCond: an if/while condition reading hidden variables; a candidate
	// for control-flow hiding, otherwise it degrades to a fetch.
	RoleCond
)

// Slice is the result of slicing function Func from Seed.
type Slice struct {
	Func *ir.Func
	Seed *ir.Var
	// Hidden is the set of hidden variables (seed plus forward closure).
	Hidden map[*ir.Var]bool
	// Roles maps statement IDs to their classification. Statements not
	// present have RoleNone.
	Roles map[int]Role
	// Stmts maps statement IDs in the slice to their IR statements.
	Stmts map[int]ir.Stmt
}

// Size returns the number of statements in the slice.
func (s *Slice) Size() int { return len(s.Stmts) }

// usesHiddenScalar reports whether stmt reads any hidden variable. Array
// element pseudo-variables never count: arrays are not hidden.
func usesHiddenScalar(stmt ir.Stmt, hidden map[*ir.Var]bool) bool {
	for _, v := range ir.UsedVars(stmt) {
		if hidden[v] {
			return true
		}
	}
	return false
}

// rhsReferencesHidden reports whether expression e reads a hidden variable.
func rhsReferencesHidden(e ir.Expr, hidden map[*ir.Var]bool) bool {
	for _, v := range ir.ExprVars(e) {
		if hidden[v] {
			return true
		}
	}
	return false
}

// Compute slices f forward from seed under policy. It reads only f's
// shared facts: the hidden set is reachability in the feeds graph, and only
// statements mentioning a hidden variable can take a role (Step 3).
func Compute(f *ir.Func, seed *ir.Var, policy Policy) *Slice {
	fa := FactsOf(f)
	s := &Slice{
		Func:   f,
		Seed:   seed,
		Hidden: fa.closure(seed, policy),
		Roles:  make(map[int]Role),
		Stmts:  make(map[int]ir.Stmt),
	}
	for v := range s.Hidden {
		for _, st := range fa.mentions[v] {
			if _, done := s.Roles[st.ID()]; done {
				continue
			}
			if role := classify(st, s.Hidden, policy); role != RoleNone {
				s.Roles[st.ID()] = role
				s.Stmts[st.ID()] = st
			}
		}
	}
	return s
}

func classify(st ir.Stmt, hidden map[*ir.Var]bool, policy Policy) Role {
	switch st := st.(type) {
	case *ir.AssignStmt:
		lhsVar := ir.DefinedVar(st)
		lhsHidden := lhsVar != nil && hidden[lhsVar]
		usesHidden := usesHiddenScalar(st, hidden)
		switch {
		case lhsHidden && !ir.HasCall(st.Rhs):
			return RoleFull
		case lhsHidden:
			return RoleSend
		case usesHidden && !ir.HasCall(st.Rhs) && rhsReferencesHidden(st.Rhs, hidden):
			// The rhs computation moves to Hf; the open target receives the
			// returned value.
			return RoleLeak
		case usesHidden:
			return RoleUse
		}
	case *ir.IfStmt:
		if rhsReferencesHidden(st.Cond, hidden) {
			return RoleCond
		}
	case *ir.WhileStmt:
		if rhsReferencesHidden(st.Cond, hidden) {
			return RoleCond
		}
	case *ir.ReturnStmt:
		if st.Value != nil && rhsReferencesHidden(st.Value, hidden) {
			return RoleUse
		}
	case *ir.PrintStmt:
		for _, a := range st.Args {
			if rhsReferencesHidden(a, hidden) {
				return RoleUse
			}
		}
	case *ir.CallStmt:
		if rhsReferencesHidden(st.Call, hidden) {
			return RoleUse
		}
	}
	return RoleNone
}

// BestSeed picks, among f's hideable scalar locals, the seed producing the
// largest slice (a proxy used by tests and tools; the experiment driver in
// package core selects by ILP complexity instead, as the paper does).
func BestSeed(f *ir.Func, policy Policy) (*ir.Var, *Slice) {
	var bestVar *ir.Var
	var bestSlice *Slice
	for _, v := range f.Locals {
		if !policy.HideableVar(v) {
			continue
		}
		sl := Compute(f, v, policy)
		if bestSlice == nil || sl.Size() > bestSlice.Size() {
			bestVar, bestSlice = v, sl
		}
	}
	return bestVar, bestSlice
}
