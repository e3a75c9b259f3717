package core_test

import (
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
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
