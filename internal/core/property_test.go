package core_test

import (
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
)

// TestPropertySplitPreservesBehavior is the central correctness property of
// the whole system: for randomly generated programs, splitting any function
// at any hideable seed variable must not change program output. This runs
// hundreds of distinct (program, function, seed) splits.
func TestPropertySplitPreservesBehavior(t *testing.T) {
	policy := slicer.Policy{}
	programs := 60
	if testing.Short() {
		programs = 15
	}
	splitsChecked := 0
	for seed := int64(0); seed < int64(programs); seed++ {
		src := oracle.RandProgram(seed)
		prog, err := ir.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, src)
		}
		want, _, err := hrt.RunOriginal(prog, 10_000_000)
		if err != nil {
			t.Fatalf("seed %d: original run failed: %v\n%s", seed, err, src)
		}
		for _, qn := range prog.Order {
			if qn == "main" {
				continue
			}
			f := prog.Funcs[qn]
			candidates := append([]*ir.Var(nil), f.Locals...)
			candidates = append(candidates, f.Params...)
			for _, v := range candidates {
				if !policy.HideableVar(v) {
					continue
				}
				sf, err := core.Split(f, v, policy)
				if err != nil {
					t.Fatalf("seed %d: split %s at %s: %v", seed, qn, v, err)
				}
				if len(sf.ILPs) == 0 && len(sf.Hidden.Frags) == 0 {
					continue
				}
				res := assemble(prog, sf)
				out := hrt.RunSplit(res, nil, 50_000_000)
				if out.Err != nil {
					t.Fatalf("seed %d: split %s at %s: run: %v\nprogram:\n%s\nopen:\n%s\nhidden:\n%s",
						seed, qn, v, out.Err, src, ir.FormatFunc(sf.Open), sf.Hidden)
				}
				if out.Output != want {
					t.Fatalf("seed %d: split %s at %s changed output.\nwant %q\ngot  %q\nprogram:\n%s\nopen:\n%s\nhidden:\n%s",
						seed, qn, v, want, out.Output, src, ir.FormatFunc(sf.Open), sf.Hidden)
				}
				splitsChecked++
			}
		}
	}
	if splitsChecked < programs*2 {
		t.Fatalf("property exercised too few splits: %d", splitsChecked)
	}
	t.Logf("verified %d splits across %d random programs", splitsChecked, programs)
}

// TestPropertyOpenComponentOmitsHiddenVars checks the security invariant:
// hidden variables never appear in the open component's text.
func TestPropertyOpenComponentOmitsHiddenVars(t *testing.T) {
	policy := slicer.Policy{}
	for seed := int64(100); seed < 120; seed++ {
		prog, err := ir.Compile(oracle.RandProgram(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, qn := range prog.Order {
			if qn == "main" {
				continue
			}
			f := prog.Funcs[qn]
			for _, v := range f.Locals {
				if !policy.HideableVar(v) {
					continue
				}
				sf, err := core.Split(f, v, policy)
				if err != nil {
					t.Fatal(err)
				}
				text := ir.FormatFunc(sf.Open)
				for _, hv := range sf.Hidden.Vars {
					if hv.Kind == ir.VarParam {
						continue // parameters arrive openly by necessity
					}
					if containsToken(text, hv.Name) {
						t.Fatalf("seed %d: hidden variable %s leaked into open text of %s:\n%s",
							seed, hv.Name, qn, text)
					}
				}
			}
		}
	}
}

// containsToken reports whether name appears as a whole identifier in text.
func containsToken(text, name string) bool {
	idx := 0
	for {
		i := strings.Index(text[idx:], name)
		if i < 0 {
			return false
		}
		i += idx
		before := byte(' ')
		if i > 0 {
			before = text[i-1]
		}
		after := byte(' ')
		if i+len(name) < len(text) {
			after = text[i+len(name)]
		}
		if !isIdentByte(before) && !isIdentByte(after) {
			return true
		}
		idx = i + len(name)
	}
}

func isIdentByte(b byte) bool {
	return b == '_' || b == '$' || (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// splitProgramUnbatched is SplitProgram without the batching pass, for a
// single spec that hides no global or field (assemble runs no §2.2
// fallback).
func splitProgramUnbatched(prog *ir.Program, specs []core.Spec, policy slicer.Policy) (*core.Result, error) {
	f := prog.Func(specs[0].Func)
	sf, err := core.SplitUnbatched(f, f.LookupVar(specs[0].Seed), policy, core.Options{})
	if err != nil {
		return nil, err
	}
	return assemble(prog, sf), nil
}

// assemble builds a one-function split result around sf.
func assemble(prog *ir.Program, sf *core.SplitFunc) *core.Result {
	open := &ir.Program{
		Globals: prog.Globals,
		Classes: prog.Classes,
		Heap:    prog.Heap,
		Order:   prog.Order,
		Funcs:   make(map[string]*ir.Func, len(prog.Funcs)),
	}
	for qn, f := range prog.Funcs {
		open.Funcs[qn] = f
	}
	open.Funcs[sf.Orig.QName()] = sf.Open
	return &core.Result{
		Orig:   prog,
		Open:   open,
		Splits: map[string]*core.SplitFunc{sf.Orig.QName(): sf},
	}
}
