package hrt_test

import (
	"fmt"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

// Differential oracle for the hidden side: the bytecode VM and the
// tree-walking fragment executor must be observably identical — same
// program output byte for byte, and same interaction counters (the Table 5
// measurements depend on them). The tree-walker is the semantic reference,
// reachable only from here; the VM is the only production engine.

// runSplitRef is hrt.RunSplitOpts with the server on the reference
// executor.
func runSplitRef(res *core.Result, maxSteps int64, opts hrt.RunOptions) hrt.RunOutcome {
	server := hrt.NewServer(hrt.NewRegistry(res))
	server.UseTreeWalker()
	return hrt.RunSplitOn(server, res, nil, maxSteps, opts)
}

// runBothModes executes one split program under both engines and fails
// the test on any observable divergence.
func runBothModes(t *testing.T, res *core.Result, maxSteps int64, label string) {
	t.Helper()
	iv := runSplitRef(res, maxSteps, hrt.RunOptions{})
	vm := hrt.RunSplitOpts(res, nil, maxSteps, hrt.RunOptions{})
	ivErr, vmErr := "", ""
	if iv.Err != nil {
		ivErr = iv.Err.Error()
	}
	if vm.Err != nil {
		vmErr = vm.Err.Error()
	}
	if ivErr != vmErr {
		t.Fatalf("%s: engines disagree on error:\ninterp: %v\nvm:     %v", label, iv.Err, vm.Err)
	}
	if iv.Output != vm.Output {
		t.Fatalf("%s: engines disagree on output:\ninterp: %q\nvm:     %q", label, iv.Output, vm.Output)
	}
	if iv.Interactions != vm.Interactions || iv.Enters != vm.Enters ||
		iv.ValuesSent != vm.ValuesSent || iv.BytesSent != vm.BytesSent ||
		iv.BytesRecv != vm.BytesRecv || iv.Steps != vm.Steps {
		t.Fatalf("%s: engines disagree on counters:\ninterp: %+v\nvm:     %+v", label, iv, vm)
	}
}

// assembleSplit builds a runnable core.Result from one split function,
// mirroring the property-test harness in package core.
func assembleSplit(prog *ir.Program, sf *core.SplitFunc) *core.Result {
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

// TestDifferentialVMvsInterpCorpus drives the full generated corpus — every
// hideable split of every function of each random program — through both
// engines and demands byte-identical output and identical counters.
func TestDifferentialVMvsInterpCorpus(t *testing.T) {
	policy := slicer.Policy{}
	programs := 40
	if testing.Short() {
		programs = 10
	}
	splitsChecked := 0
	for seed := int64(0); seed < int64(programs); seed++ {
		src := corpus.RandProgram(seed)
		prog, err := ir.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
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
				res := assembleSplit(prog, sf)
				runBothModes(t, res, 50_000_000, fmt.Sprintf("seed %d: %s at %s", seed, qn, v.Name))
				splitsChecked++
			}
		}
	}
	if splitsChecked < programs {
		t.Fatalf("differential oracle exercised too few splits: %d", splitsChecked)
	}
	t.Logf("verified %d splits across %d random programs under both engines", splitsChecked, programs)
}

// TestDifferentialVMvsInterpKernels runs the five Table 5 kernels (at test
// scale) under both engines across the sync and pipelined transports.
func TestDifferentialVMvsInterpKernels(t *testing.T) {
	for _, k := range corpus.Kernels() {
		if k.Excluded {
			continue
		}
		size := k.Inputs[0].Size / 400
		if size < 10 {
			size = 10
		}
		prog, err := ir.Compile(k.Source(size))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		res, err := core.SplitProgram(prog, k.Split, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		runBothModes(t, res, 100_000_000, k.Name)
		// Pipelined transport: one-way calls, coalesced writes — the
		// engines must agree there too.
		ivp := runSplitRef(res, 100_000_000, hrt.RunOptions{Pipeline: true})
		vmp := hrt.RunSplitOpts(res, nil, 100_000_000, hrt.RunOptions{Pipeline: true})
		if ivp.Err != nil || vmp.Err != nil {
			t.Fatalf("%s pipelined: interp err %v, vm err %v", k.Name, ivp.Err, vmp.Err)
		}
		if ivp.Output != vmp.Output {
			t.Fatalf("%s pipelined: engines disagree on output", k.Name)
		}
		if ivp.Interactions != vmp.Interactions || ivp.ValuesSent != vmp.ValuesSent {
			t.Fatalf("%s pipelined: engines disagree on counters:\ninterp: %+v\nvm:     %+v", k.Name, ivp, vmp)
		}
	}
}

// FuzzVMvsInterp feeds random (program seed, function, variable) triples
// through both engines. The fuzzer mutates its way through the corpus
// generator's seed space; any divergence — output, error text, or
// counters — is a crash.
func FuzzVMvsInterp(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(2))
	f.Add(int64(42), uint8(3), uint8(1))
	policy := slicer.Policy{}
	f.Fuzz(func(t *testing.T, seed int64, fnPick, varPick uint8) {
		prog, err := ir.Compile(corpus.RandProgram(seed))
		if err != nil {
			t.Skip()
		}
		var fns []string
		for _, qn := range prog.Order {
			if qn != "main" {
				fns = append(fns, qn)
			}
		}
		if len(fns) == 0 {
			t.Skip()
		}
		fn := prog.Funcs[fns[int(fnPick)%len(fns)]]
		candidates := append([]*ir.Var(nil), fn.Locals...)
		candidates = append(candidates, fn.Params...)
		var hideable []*ir.Var
		for _, v := range candidates {
			if policy.HideableVar(v) {
				hideable = append(hideable, v)
			}
		}
		if len(hideable) == 0 {
			t.Skip()
		}
		v := hideable[int(varPick)%len(hideable)]
		sf, err := core.Split(fn, v, policy)
		if err != nil {
			t.Skip()
		}
		if len(sf.ILPs) == 0 && len(sf.Hidden.Frags) == 0 {
			t.Skip()
		}
		runBothModes(t, assembleSplit(prog, sf), 20_000_000, "fuzz")
	})
}
