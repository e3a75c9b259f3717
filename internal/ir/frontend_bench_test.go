package ir_test

import (
	"testing"

	"slicehide/internal/corpus"
	"slicehide/internal/ir"
)

// BenchmarkFrontEnd parses, checks and lowers the five Table 1 corpora at
// full scale under seed 1, as one pass of `go run ./bench -workload
// split_corpus -seed 1` does before its call-graph cut. allocs/op is the
// front end's mallocs per pass.
func BenchmarkFrontEnd(b *testing.B) {
	var srcs []string
	size := 0
	for _, p := range corpus.Profiles {
		p.Seed += 1000
		src := corpus.Generate(p)
		srcs = append(srcs, src)
		size += len(src)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, src := range srcs {
			if _, err := ir.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
