package core_test

import (
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

// BenchmarkSplitCandidates times what the §4 seed rule pays on the split
// side: SplitOpts on every hideable local and parameter of every function
// of one generated corpus program (javac at full scale). Each iteration
// compiles the program afresh, off the clock, so per-function analyses are
// built inside the measurement.
func BenchmarkSplitCandidates(b *testing.B) {
	src := corpus.Generate(corpus.Profiles[0])
	var policy slicer.Policy
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog := ir.MustCompile(src)
		b.StartTimer()
		for _, qn := range prog.Order {
			f := prog.Funcs[qn]
			for _, v := range append(append([]*ir.Var(nil), f.Locals...), f.Params...) {
				if !policy.HideableVar(v) {
					continue
				}
				if _, err := core.SplitOpts(f, v, policy, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAblationBatching measures call batching on Figure 2: the default
// split, which merges adjacent non-leaking hidden calls into single round
// trips, against the unbatched reference the paper draws. The metric of
// interest is the interaction count (communication dominates the Table 5
// overhead, so fewer round trips means proportionally less cost).
func BenchmarkAblationBatching(b *testing.B) {
	prog := ir.MustCompile(figure2Src)
	run := func(split func(*ir.Program, []core.Spec, slicer.Policy) (*core.Result, error)) int64 {
		res, err := split(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
		if err != nil {
			b.Fatal(err)
		}
		out := hrt.RunSplit(res, nil, 1_000_000)
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		return out.Interactions
	}
	var plain, batched int64
	for i := 0; i < b.N; i++ {
		plain = run(splitProgramUnbatched)
		batched = run(core.SplitProgram)
	}
	if batched >= plain {
		b.Fatalf("batching did not reduce interactions: %d vs %d", batched, plain)
	}
	b.ReportMetric(float64(plain), "interactions-plain")
	b.ReportMetric(float64(batched), "interactions-batched")
}
