package slicer_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"slicehide"
	"slicehide/internal/callgraph"
	"slicehide/internal/complexity"
	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

// testSources returns the programs the differential tests run over: the
// five Table 1 corpora at 1/20 scale and the four measured Table 5 kernels
// at their smallest input.
func testSources() map[string]string {
	srcs := map[string]string{}
	for _, p := range corpus.Profiles {
		srcs["corpus/"+p.Name] = corpus.Generate(p.Scale(0.05))
	}
	for _, k := range corpus.Kernels() {
		if !k.Excluded {
			srcs["kernel/"+k.Name] = k.Source(k.Inputs[0].Size)
		}
	}
	return srcs
}

// candidates lists f's hideable locals and parameters, the seeds the §4
// rule tries.
func candidates(f *ir.Func, policy slicer.Policy) []*ir.Var {
	var out []*ir.Var
	for _, v := range append(append([]*ir.Var(nil), f.Locals...), f.Params...) {
		if policy.HideableVar(v) {
			out = append(out, v)
		}
	}
	return out
}

var policies = []slicer.Policy{{}, {HideGlobals: true, HideFields: true}}

func TestComputeMatchesPerSeedOracle(t *testing.T) {
	seeds := 0
	for name, src := range testSources() {
		prog := ir.MustCompile(src)
		for _, qn := range prog.Order {
			f := prog.Funcs[qn]
			for _, policy := range policies {
				for _, v := range candidates(f, policy) {
					seeds++
					got, want := slicer.Compute(f, v, policy), slicer.OracleCompute(f, v, policy)
					if !reflect.DeepEqual(got.Hidden, want.Hidden) {
						t.Errorf("%s %s seed %s %+v: hidden %v, oracle %v", name, qn, v, policy, got.HiddenVarNames(), want.HiddenVarNames())
					}
					if !reflect.DeepEqual(got.Roles, want.Roles) {
						t.Errorf("%s %s seed %s %+v: roles differ:\n%s\noracle:\n%s", name, qn, v, policy, got, &want.Slice)
					}
					if !reflect.DeepEqual(got.Stmts, want.Stmts) {
						t.Errorf("%s %s seed %s %+v: slice statements differ from the oracle's", name, qn, v, policy)
					}
				}
				gotSeed, gotSlice := slicer.BestSeed(f, policy)
				wantSeed, wantSlice := slicer.OracleBestSeed(f, policy)
				if gotSeed != wantSeed {
					t.Errorf("%s %s %+v: best seed %v, oracle %v", name, qn, policy, gotSeed, wantSeed)
				} else if gotSeed != nil && gotSlice.Size() != wantSlice.Size() {
					t.Errorf("%s %s %+v: best slice has %d statements, oracle %d", name, qn, policy, gotSlice.Size(), wantSlice.Size())
				}
			}
		}
	}
	if seeds < 1000 {
		t.Fatalf("only %d seeds compared; the corpora shrank", seeds)
	}
}

// splitReport splits f at seed and renders everything downstream of the
// function's facts: the slice, the open function, and the §3 report of
// every ILP.
func splitReport(f *ir.Func, seed *ir.Var) string {
	sf, err := core.SplitOpts(f, seed, slicer.Policy{}, core.Options{})
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(sf.Slice.String())
	b.WriteString(ir.FormatFunc(sf.Open))
	for _, opts := range []complexity.Options{{}, {MinAtUses: true}} {
		for _, r := range complexity.AnalyzeOpts(sf, opts) {
			fmt.Fprintf(&b, "%s at s%d: %s %v %s paths=%d\n", r.ILP, r.ILP.StmtID, r.AC, r.AC.InputNames(), r.CC, r.CC.Paths)
		}
	}
	return b.String()
}

// TestAnalysisSharedVsFresh analyzes every seed of every function twice:
// on one compiled program, where a function's seeds share its facts, and on
// a program compiled again for each seed position, where every function
// meets exactly one seed and so builds its facts for that seed alone.
func TestAnalysisSharedVsFresh(t *testing.T) {
	for name, src := range testSources() {
		shared := ir.MustCompile(src)
		for pos, more := 0, true; more; pos++ {
			more = false
			fresh := ir.MustCompile(src)
			for _, qn := range shared.Order {
				seeds := candidates(shared.Funcs[qn], slicer.Policy{})
				if pos >= len(seeds) {
					continue
				}
				more = true
				f := fresh.Funcs[qn]
				got := splitReport(shared.Funcs[qn], seeds[pos])
				want := splitReport(f, f.LookupVar(seeds[pos].Name))
				if got != want {
					t.Errorf("%s %s seed %s: shared facts give\n%s\nfresh facts give\n%s", name, qn, seeds[pos], got, want)
				}
			}
		}
	}
}

// snapshot renders everything a pass could change about a function.
func snapshot(prog *ir.Program) string {
	var b strings.Builder
	for _, qn := range prog.Order {
		f := prog.Funcs[qn]
		fmt.Fprintf(&b, "%slocals %v, %d statement ids\n", ir.FormatFunc(f), f.Locals, f.NumStmtIDs())
	}
	return b.String()
}

// TestPassesLeaveOriginalFunctionsUntouched pins the invariant the shared
// facts rest on (see ir.Func): the whole split side runs over a program and
// its original functions print exactly as they did before.
func TestPassesLeaveOriginalFunctionsUntouched(t *testing.T) {
	for name, src := range testSources() {
		prog := ir.MustCompile(src)
		before := snapshot(prog)

		chosen, _ := callgraph.Build(prog).Cut("main", callgraph.CutOptions{
			AvoidRecursive:  true,
			AvoidLoopCalled: true,
			Eligible: func(qn string) bool {
				seed, sl := slicer.BestSeed(prog.Func(qn), slicer.Policy{})
				return qn != "main" && seed != nil && sl.Size() >= 3
			},
		})
		if len(chosen) == 0 {
			t.Fatalf("%s: the cut chose nothing", name)
		}
		var specs []slicehide.Spec
		for _, qn := range chosen {
			f := prog.Func(qn)
			for _, v := range candidates(f, slicer.Policy{}) {
				sf, err := core.SplitOpts(f, v, slicer.Policy{}, core.Options{})
				if err != nil {
					t.Fatalf("%s %s seed %s: %v", name, qn, v, err)
				}
				slicehide.AnalyzeILPs(sf)
			}
			specs = append(specs, slicehide.Spec{Func: qn})
		}
		if _, err := slicehide.SplitWith(prog, specs, slicehide.Policy{}, slicehide.Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		if after := snapshot(prog); after != before {
			t.Errorf("%s: a pass changed an original function", name)
		}
	}
}

// TestSharedFactsConcurrent slices, splits and analyzes the same functions
// from 8 goroutines at once, starting before any of a function's facts
// exist, and requires what a serial run over its own copy of the program
// produces. Run under -race (see the Makefile's race target).
func TestSharedFactsConcurrent(t *testing.T) {
	src := corpus.Generate(corpus.Profiles[0].Scale(0.05))
	work := func(prog *ir.Program) string {
		var b strings.Builder
		for _, qn := range prog.Order {
			f := prog.Funcs[qn]
			seed, best := slicer.BestSeed(f, slicer.Policy{})
			if seed == nil {
				continue
			}
			b.WriteString(best.String())
			for _, v := range candidates(f, slicer.Policy{}) {
				b.WriteString(slicer.Compute(f, v, slicer.Policy{}).String())
				b.WriteString(splitReport(f, v))
			}
		}
		return b.String()
	}
	want := work(ir.MustCompile(src))

	prog := ir.MustCompile(src)
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = work(prog)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d: result differs from the serial run", i)
		}
	}
}

// BenchmarkBestSeedCorpus times BestSeed over every function of one
// generated corpus program (javac at full scale). Each iteration compiles
// the program afresh, off the clock, so the functions' facts are built
// inside the measurement, once each.
func BenchmarkBestSeedCorpus(b *testing.B) {
	src := corpus.Generate(corpus.Profiles[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog := ir.MustCompile(src)
		b.StartTimer()
		for _, qn := range prog.Order {
			slicer.BestSeed(prog.Funcs[qn], slicer.Policy{})
		}
	}
}
