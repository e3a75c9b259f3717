package complexity

import (
	"strings"
	"sync"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

var benchReports []Report

// BenchmarkAnalyzeCorpus times the §3 analysis alone: AnalyzeOpts for every
// hideable seed of one generated corpus program (javac at full scale). The
// splits, and the functions' facts they analyse, are built once before the
// timer starts.
func BenchmarkAnalyzeCorpus(b *testing.B) {
	prog := ir.MustCompile(corpus.Generate(corpus.Profiles[0]))
	var splits []*core.SplitFunc
	for _, qn := range prog.Order {
		f := prog.Funcs[qn]
		for _, v := range hideableSeeds(f) {
			sf, err := core.SplitOpts(f, v, slicer.Policy{}, core.Options{})
			if err != nil {
				b.Fatalf("%s seed %s: %v", qn, v, err)
			}
			slicer.FactsOf(f).Reaching()
			splits = append(splits, sf)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sf := range splits {
			benchReports = AnalyzeOpts(sf, Options{})
		}
	}
}

// TestFixpointConverges runs the propagation over every split of the
// corpora and kernels under both aggregation rules. They settle within 3
// rounds today; a lattice change that stops them settling within 8 fails
// here instead of leaving a half-propagated AC behind.
func TestFixpointConverges(t *testing.T) {
	const limit = 8
	n := 0
	eachSplit(func(name, qn string, seed *ir.Var, sf *core.SplitFunc, err error) {
		if err != nil {
			return
		}
		for _, o := range goldenOptions {
			a := newAnalyzer(sf)
			a.opts = o.opts
			if !a.fixpoint(limit) {
				t.Errorf("%s %s seed %s (%s): no fixpoint within %d rounds", name, qn, seed, o.tag, limit)
			}
			n++
		}
	})
	if n < 1000 {
		t.Fatalf("only %d analyses ran; the corpora shrank", n)
	}
}

// TestAnalyzeConcurrent analyses the same split functions from 8 goroutines
// at once over shared facts whose CFG and reaching definitions nobody has
// asked for yet, and requires what a serial run over its own copy of the
// program reports. Run under -race (see the Makefile's race target).
func TestAnalyzeConcurrent(t *testing.T) {
	src := corpus.Generate(corpus.Profiles[0].Scale(0.05))
	splits := func(prog *ir.Program) []*core.SplitFunc {
		var out []*core.SplitFunc
		for _, qn := range prog.Order {
			f := prog.Funcs[qn]
			for _, v := range hideableSeeds(f) {
				if sf, err := core.SplitOpts(f, v, slicer.Policy{}, core.Options{}); err == nil {
					out = append(out, sf)
				}
			}
		}
		return out
	}
	render := func(sfs []*core.SplitFunc) string {
		var b strings.Builder
		for _, sf := range sfs {
			renderReports(&b, sf.Orig.QName()+" seed="+sf.Seed.String(), sf)
		}
		return b.String()
	}
	want := render(splits(ir.MustCompile(src)))

	shared := splits(ir.MustCompile(src))
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = render(shared)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d: reports differ from the serial run", i)
		}
	}
}
