package core

import (
	"fmt"
	"sort"
	"strings"

	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

// Spec names one function to split and, optionally, the seed variable. An
// empty seed lets the splitter pick the local producing the largest slice.
type Spec struct {
	Func string
	Seed string
}

// ParseSpecs parses the -split list syntax shared by every command: specs
// separated by commas, each f or f:seed. Spaces around names are ignored,
// and so are blank entries; an empty list yields no specs.
func ParseSpecs(list string) []Spec {
	var specs []Spec
	for _, part := range strings.Split(list, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		fn, seed, _ := strings.Cut(part, ":")
		specs = append(specs, Spec{Func: strings.TrimSpace(fn), Seed: strings.TrimSpace(seed)})
	}
	return specs
}

// Result is a program-level split: the open program (split functions
// replaced by their open components) plus the hidden components.
type Result struct {
	// Orig is the untouched input program.
	Orig *ir.Program
	// Open is the program the unsecure machine runs.
	Open *ir.Program
	// Splits maps split function names to their split records.
	Splits map[string]*SplitFunc
	// Globals is the shared component of hidden globals, "$globals" (nil
	// unless a split hides a global).
	Globals *SharedComponent
	// Fields maps class names to the shared components of their hidden
	// fields, "$class:C" (nil unless a split hides a field).
	Fields map[string]*SharedComponent
}

// SplitNames returns the split function names in sorted order.
func (r *Result) SplitNames() []string {
	names := make([]string, 0, len(r.Splits))
	for n := range r.Splits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SplitSet returns the split-function name set (for interp.Options).
func (r *Result) SplitSet() map[string]bool {
	m := make(map[string]bool, len(r.Splits))
	for n := range r.Splits {
		m[n] = true
	}
	return m
}

// AllILPs returns every ILP: those of the split functions, ordered by
// function name then ILP id, then the fetches that rewritten functions make
// on shared components, "$globals" first and then the classes by name.
func (r *Result) AllILPs() []*ILP {
	var out []*ILP
	for _, name := range r.SplitNames() {
		out = append(out, r.Splits[name].ILPs...)
	}
	if r.Globals != nil {
		out = append(out, r.Globals.ILPs...)
	}
	classes := make([]string, 0, len(r.Fields))
	for class := range r.Fields {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		out = append(out, r.Fields[class].ILPs...)
	}
	return out
}

// TotalSliceStatements sums slice sizes across splits (Table 2).
func (r *Result) TotalSliceStatements() int {
	n := 0
	for _, sf := range r.Splits {
		n += sf.Slice.Size()
	}
	return n
}

// SplitProgram splits every function named in specs and assembles the open
// program. Hidden globals and class fields move to shared components, and
// every other function that references them is rewritten to fetch/update
// calls; hiding one that another split function touches is rejected.
func SplitProgram(prog *ir.Program, specs []Spec, policy slicer.Policy) (*Result, error) {
	return SplitProgramOpts(prog, specs, policy, Options{})
}

// SplitProgramOpts is SplitProgram with explicit transformation options.
func SplitProgramOpts(prog *ir.Program, specs []Spec, policy slicer.Policy, opts Options) (*Result, error) {
	res := &Result{
		Orig: prog,
		Open: &ir.Program{
			Globals: prog.Globals,
			Classes: prog.Classes,
			Heap:    prog.Heap,
			Order:   prog.Order,
			Funcs:   make(map[string]*ir.Func, len(prog.Funcs)),
		},
		Splits: make(map[string]*SplitFunc),
	}
	for qn, f := range prog.Funcs {
		res.Open.Funcs[qn] = f
	}
	for _, spec := range specs {
		f := prog.Func(spec.Func)
		if f == nil {
			return nil, fmt.Errorf("core: no function %q to split", spec.Func)
		}
		if _, dup := res.Splits[spec.Func]; dup {
			return nil, fmt.Errorf("core: function %q listed twice", spec.Func)
		}
		var seed *ir.Var
		if spec.Seed != "" {
			seed = f.LookupVar(spec.Seed)
			if seed == nil {
				return nil, fmt.Errorf("core: no variable %q in %s", spec.Seed, spec.Func)
			}
		} else {
			seed, _ = slicer.BestSeed(f, policy)
			if seed == nil {
				return nil, fmt.Errorf("core: %s has no hideable scalar local to seed splitting", spec.Func)
			}
		}
		sf, err := SplitOpts(f, seed, policy, opts)
		if err != nil {
			return nil, err
		}
		res.Splits[spec.Func] = sf
		res.Open.Funcs[spec.Func] = sf.Open
		// The §2.2 fallback: hidden globals go to "$globals", hidden fields
		// to per-class components with per-object stores, and the other
		// functions that reference them are rewritten to fetch/update calls.
		if err := applyFallback(res, prog, sf, specs); err != nil {
			return nil, err
		}
	}
	return res, nil
}
