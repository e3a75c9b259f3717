// Package core implements the paper's primary contribution: the splitting
// transformation that divides a function f into an open component Of
// (installed on the unsecure machine) and a hidden component Hf (installed
// on the secure device), constructed from forward data slices so that the
// hidden functionality is hard to recover by observing Of and its runtime
// interaction with Hf (Zhang & Gupta, "Hiding Program Slices for Software
// Security", CGO 2003, §2).
package core

import (
	"fmt"
	"sort"
	"strings"

	"slicehide/internal/ir"
	"slicehide/internal/lang/types"
	"slicehide/internal/slicer"
)

// FragKind classifies hidden-component fragments.
type FragKind int

// Fragment kinds.
const (
	// FragExec runs hidden statements and returns the sentinel "any".
	FragExec FragKind = iota
	// FragEval evaluates a hidden expression and returns its value.
	FragEval
	// FragUpdate stores a value computed openly into a hidden variable
	// (Step 3 case ii / Step 4 update).
	FragUpdate
	// FragFetch returns the current value of a single hidden variable
	// (Step 4 fetch); a degenerate FragEval kept distinct for reporting.
	FragFetch
	// FragCond evaluates a hidden predicate, optionally executing a hidden
	// branch or loop body, and returns the predicate value.
	FragCond
)

func (k FragKind) String() string {
	switch k {
	case FragExec:
		return "exec"
	case FragEval:
		return "eval"
	case FragUpdate:
		return "update"
	case FragFetch:
		return "fetch"
	case FragCond:
		return "cond"
	}
	return "?"
}

// Fragment is one labeled code fragment of a hidden component. The open
// component triggers it with H(id, args...); the hidden executor runs Body
// against the activation's hidden store with $a0..$aN bound to args.
type Fragment struct {
	ID   int
	Kind FragKind
	// ArgVars are the parameter placeholders $a0.. referenced by Body.
	ArgVars []*ir.Var
	// Body is the hidden code; FragEval/FragFetch/FragCond bodies end by
	// returning the leaked value.
	Body []ir.Stmt
	// HidesPredicate marks fragments that evaluate a predicate from the
	// original program inside the hidden component.
	HidesPredicate bool
	// HidesFlow marks fragments that contain control-flow constructs moved
	// out of the open component.
	HidesFlow bool
	// HasLoop marks fragments containing a loop (paths become a runtime
	// variable, §3 control-flow complexity).
	HasLoop bool
	// Note is a human-readable description for reports.
	Note string
}

// String renders the fragment header and body.
func (fr *Fragment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frag %d (%s", fr.ID, fr.Kind)
	if fr.HidesPredicate {
		b.WriteString(", hidden-pred")
	}
	if fr.HidesFlow {
		b.WriteString(", hidden-flow")
	}
	if fr.HasLoop {
		b.WriteString(", loop")
	}
	b.WriteString(")")
	if fr.Note != "" {
		fmt.Fprintf(&b, " // %s", fr.Note)
	}
	b.WriteString("\n")
	b.WriteString(ir.FormatStmts(fr.Body, 1))
	return b.String()
}

// HiddenComponent is Hf: the hidden variables and fragments of one split
// function.
type HiddenComponent struct {
	// Func is the qualified name of the original function.
	Func string
	// Vars lists the hidden variables (their storage lives on the secure
	// device, one store per activation).
	Vars []*ir.Var
	// Frags maps fragment IDs to fragments.
	Frags map[int]*Fragment
	// Constructs maps original statement IDs of if/while constructs whose
	// predicate (and possibly flow) moved to Hf to the hiding fragment.
	// The §3 control-flow-complexity analysis consumes this.
	Constructs map[int]*Fragment

	// shell allocates statement IDs for fragment bodies.
	shell *ir.Func
}

// FragIDs returns fragment IDs in ascending order.
func (h *HiddenComponent) FragIDs() []int {
	ids := make([]int, 0, len(h.Frags))
	for id := range h.Frags {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// String renders the whole hidden component.
func (h *HiddenComponent) String() string {
	var b strings.Builder
	names := make([]string, len(h.Vars))
	for i, v := range h.Vars {
		names[i] = v.String()
	}
	fmt.Fprintf(&b, "hidden component of %s\nvars: %s\n", h.Func, strings.Join(names, " "))
	for _, id := range h.FragIDs() {
		b.WriteString(h.Frags[id].String())
	}
	return b.String()
}

// ILPKind classifies information leak points.
type ILPKind int

// ILP kinds.
const (
	// ILPFetch leaks the raw value of one hidden variable.
	ILPFetch ILPKind = iota
	// ILPExpr leaks the value of a hidden expression.
	ILPExpr
	// ILPLeakAssign is Step 3 case iii: a hidden rhs stored into an open
	// aggregate location.
	ILPLeakAssign
	// ILPCond leaks a hidden predicate value (branch or loop driver).
	ILPCond
)

func (k ILPKind) String() string {
	switch k {
	case ILPFetch:
		return "fetch"
	case ILPExpr:
		return "expr"
	case ILPLeakAssign:
		return "leak-assign"
	case ILPCond:
		return "cond"
	}
	return "?"
}

// ILP is an information leak point (§3): a call site in the open component
// whose returned value is used by future open computation.
type ILP struct {
	ID   int
	Kind ILPKind
	// Func is the split function's qualified name.
	Func string
	// Frag is the hidden fragment whose return value leaks here.
	Frag *Fragment
	// Site is the H(...) expression in the open component.
	Site *ir.HCallExpr
	// HiddenExpr is the expression (in original-IR terms) whose value is
	// leaked; used by the §3 complexity analysis and by attack ground truth.
	HiddenExpr ir.Expr
	// StmtID is the ID of the original statement whose rewriting produced
	// this ILP (an anchor into the original function's def-use chains).
	StmtID int
	// InLoop reports whether the ILP site sits inside a loop of the open
	// component.
	InLoop bool
}

func (p *ILP) String() string {
	return fmt.Sprintf("ILP %d (%s) frag %d: %s", p.ID, p.Kind, p.Frag.ID, ir.ExprString(p.HiddenExpr))
}

// SplitFunc is the result of splitting one function.
type SplitFunc struct {
	// Orig is the original (untouched) function.
	Orig *ir.Func
	// Seed is the local variable that initiated slicing.
	Seed *ir.Var
	// Open is Of, the rewritten function.
	Open *ir.Func
	// Hidden is Hf.
	Hidden *HiddenComponent
	// Slice is the underlying forward data slice.
	Slice *slicer.Slice
	// ILPs are the information leak points created by the split.
	ILPs []*ILP
	// FullyHidden and PartiallyHidden classify the hidden variables
	// (Step 2): fully hidden variables have no open-side references left;
	// partially hidden variables are still updated or fetched by Of.
	FullyHidden     []*ir.Var
	PartiallyHidden []*ir.Var
}

// Stats summarizes a split for Table 2.
type Stats struct {
	Func            string
	SliceStatements int
	Fragments       int
	ILPs            int
	HiddenVars      int
	FullyHidden     int
}

// Stats computes the summary for this split.
func (sf *SplitFunc) Stats() Stats {
	return Stats{
		Func:            sf.Orig.QName(),
		SliceStatements: sf.Slice.Size(),
		Fragments:       len(sf.Hidden.Frags),
		ILPs:            len(sf.ILPs),
		HiddenVars:      len(sf.Hidden.Vars),
		FullyHidden:     len(sf.FullyHidden),
	}
}

// argVar returns the i'th argument placeholder, creating it if needed.
func (h *HiddenComponent) argVar(fr *Fragment, i int) *ir.Var {
	for len(fr.ArgVars) <= i {
		fr.ArgVars = append(fr.ArgVars, &ir.Var{
			Name: fmt.Sprintf("$a%d", len(fr.ArgVars)),
			Kind: ir.VarParam,
			Type: types.IntType,
		})
	}
	return fr.ArgVars[i]
}
