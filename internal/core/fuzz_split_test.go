package core_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
)

// fuzzSplitSteps bounds the unsplit run of a FuzzSplit input; a program
// that does not finish within it is passed over. The Table 5 kernels
// behind split.golden take up to 2.4 million steps.
const fuzzSplitSteps = 3_000_000

// FuzzSplit is TestPropertySplitPreservesBehavior over any program the
// front end accepts: every function with a hideable seed is split at
// slicer.BestSeed (a function whose split the splitter refuses is left
// open), and the split program, run on the bytecode machine against an
// in-process server, synchronously and pipelined, must print what the
// unsplit program prints and fail with the same error text. No fragment
// may be left without an open call naming it. Seeds: every corpus profile
// at small scale, the MiniJ sources of examples/, the programs behind
// testdata/split.golden and a few random programs.
func FuzzSplit(f *testing.F) {
	for _, p := range corpus.Profiles {
		f.Add([]byte(corpus.Generate(p.Scale(0.01))))
	}
	for _, src := range exampleSources(f) {
		f.Add([]byte(src))
	}
	for _, c := range goldenCases() {
		f.Add([]byte(c.src))
	}
	for seed := int64(0); seed < 4; seed++ {
		f.Add([]byte(oracle.RandProgram(seed)))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkSplitPreserves(t, string(src))
	})
}

// checkSplitPreserves splits every function of src that has a seed and
// holds the split runs to the unsplit one; a source that does not compile
// or does not finish within fuzzSplitSteps is passed over.
func checkSplitPreserves(t *testing.T, src string) {
	t.Helper()
	prog, err := ir.Compile(src)
	if err != nil {
		return
	}
	want, steps, runErr := hrt.RunOriginal(prog, fuzzSplitSteps)
	if re := (*interp.RuntimeError)(nil); errors.As(runErr, &re) && re.Msg == "step limit exceeded" {
		return
	}
	policy := slicer.Policy{}
	var specs []core.Spec
	for _, qn := range prog.Order {
		if qn == "main" {
			continue
		}
		seed, _ := slicer.BestSeed(prog.Funcs[qn], policy)
		if seed == nil {
			continue
		}
		try := append(specs[:len(specs):len(specs)], core.Spec{Func: qn, Seed: seed.Name})
		if _, err := core.SplitProgram(prog, try, policy); err == nil {
			specs = try
		}
	}
	if len(specs) == 0 {
		return
	}
	res, err := core.SplitProgram(prog, specs, policy)
	if err != nil {
		t.Fatalf("split %v: %v", specs, err)
	}
	if orphans := orphanFrags(res); len(orphans) > 0 {
		t.Fatalf("split %v: %d fragments no open call names: %v\nprogram:\n%s", specs, len(orphans), orphans, src)
	}
	for _, pipelined := range []bool{false, true} {
		out := hrt.RunSplitOpts(res, nil, 4*steps+10_000, hrt.RunOptions{Pipeline: pipelined})
		if out.Output != want || errText(out.Err) != errText(runErr) {
			t.Fatalf("split %v (pipelined %v) changed the run.\nwant %q, error %q\ngot  %q, error %q\nprogram:\n%s",
				specs, pipelined, want, errText(runErr), out.Output, errText(out.Err), src)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// exampleSources returns the string constants of the examples' mains that
// compile as MiniJ programs.
func exampleSources(tb testing.TB) []string {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no example sources (%v)", err)
	}
	var srcs []string
	for _, name := range files {
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil {
				if _, err := ir.Compile(s); err == nil {
					srcs = append(srcs, s)
				}
			}
			return true
		})
	}
	return srcs
}
