package core

import (
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

// SplitUnbatched is SplitOpts without the batching pass: the split the
// paper's Figure 2 draws, kept as the reference the batching tests and
// BenchmarkAblationBatching compare the default split against.
func SplitUnbatched(f *ir.Func, seed *ir.Var, policy slicer.Policy, opts Options) (*SplitFunc, error) {
	return split(f, seed, policy, opts, false)
}
