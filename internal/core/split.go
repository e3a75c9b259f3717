package core

import (
	"fmt"
	"sort"

	"slicehide/internal/ir"
	"slicehide/internal/lang/token"
	"slicehide/internal/slicer"
)

// sortVars orders variables by name for deterministic output.
func sortVars(vs []*ir.Var) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].String() < vs[j].String() })
}

// Options tunes the splitting transformation.
type Options struct {
	// NoControlFlowHiding disables moving if/while constructs (and their
	// predicates) into the hidden component; hidden predicate values are
	// still fetched, but structure stays in Of. Used by the ablation
	// benchmarks to measure how much security the §2.2 control-flow rules
	// add.
	NoControlFlowHiding bool
	// BatchCalls merges runs of adjacent non-leaking hidden calls into
	// single round trips, reducing the interaction count (the
	// communication-cost optimization measured by the batching ablation).
	BatchCalls bool
}

// Split applies the splitting transformation to f, seeded at local variable
// seed, and returns the open component, hidden component, and ILP inventory.
//
// The transformation follows §2.2 of the paper:
//
//	Step 1  computes the forward data slice Slice(f, seed);
//	Step 2  determines fully and partially hidden variables;
//	Step 3  splits each slice statement between Of and Hf (cases i–iv);
//	Step 4  inserts update/fetch interactions for open references to
//	        hidden variables;
//	plus control-flow hiding: constructs whose bodies moved entirely to Hf
//	take their predicates and looping structure with them.
func Split(f *ir.Func, seed *ir.Var, policy slicer.Policy) (*SplitFunc, error) {
	return SplitOpts(f, seed, policy, Options{})
}

// SplitOpts is Split with explicit transformation options.
func SplitOpts(f *ir.Func, seed *ir.Var, policy slicer.Policy, opts Options) (*SplitFunc, error) {
	if !policy.HideableVar(seed) {
		return nil, fmt.Errorf("core: seed %s of %s is not a hideable scalar", seed, f.QName())
	}
	sl := slicer.Compute(f, seed, policy)
	s := &splitter{
		opts:   opts,
		orig:   f,
		sl:     sl,
		hidden: sl.Hidden,
		open: &ir.Func{
			Name:   f.Name,
			Class:  f.Class,
			Params: f.Params,
			Result: f.Result,
		},
		comp: newComponent(f.QName(), f.QName()+"$hidden"),
	}
	for _, v := range f.Locals {
		if !s.hidden[v] {
			s.open.Locals = append(s.open.Locals, v)
		}
	}
	for v := range s.hidden {
		s.comp.Vars = append(s.comp.Vars, v)
	}
	sortVars(s.comp.Vars)

	var body []ir.Stmt
	// Hidden parameters receive their caller-supplied value openly; send it
	// to the hidden store before anything else runs.
	for _, p := range f.Params {
		if s.hidden[p] {
			fr := s.updateFrag(p)
			call := &ir.HCallExpr{FragID: fr.ID, Args: []ir.Expr{&ir.VarRef{Var: p}}, NoReply: true}
			body = append(body, s.open.NewHCallStmt(token.Pos{}, call))
		}
	}
	body = append(body, s.emitStmts(f.Body)...)
	s.open.Body = body
	if opts.BatchCalls {
		s.open.Body = s.batchCalls(s.open.Body)
	}
	if s.splitErr != nil {
		return nil, s.splitErr
	}

	sf := &SplitFunc{
		Orig:   f,
		Seed:   seed,
		Open:   s.open,
		Hidden: s.comp,
		Slice:  sl,
		ILPs:   s.ilps,
	}
	for _, v := range s.comp.Vars {
		if s.partial[v] {
			sf.PartiallyHidden = append(sf.PartiallyHidden, v)
		} else {
			sf.FullyHidden = append(sf.FullyHidden, v)
		}
	}
	return sf, nil
}

type splitter struct {
	opts   Options
	orig   *ir.Func
	open   *ir.Func
	comp   *HiddenComponent
	sl     *slicer.Slice
	hidden map[*ir.Var]bool

	// partial holds the hidden variables Of still updates (Step 2).
	partial map[*ir.Var]bool

	ilps      []*ILP
	nextTemp  int
	loopDepth int
	// curStmt is the original statement currently being rewritten; ILPs
	// created during its rewrite anchor to it.
	curStmt ir.Stmt
	// splitErr records an unsupported construct encountered mid-emission.
	splitErr error
}
