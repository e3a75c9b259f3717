package complexity

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
)

var update = flag.Bool("update", false, "rewrite testdata/reports.golden from the current analysis")

const goldenPath = "testdata/reports.golden"

// source is one program the corpus-wide tests run over.
type source struct{ name, src string }

// testSources returns the five Table 1 corpora at 1/20 scale and the four
// measured Table 5 kernels at their smallest input, in name order.
func testSources() []source {
	var out []source
	for _, p := range corpus.Profiles {
		out = append(out, source{"corpus/" + p.Name, corpus.Generate(p.Scale(0.05))})
	}
	for _, k := range corpus.Kernels() {
		if !k.Excluded {
			out = append(out, source{"kernel/" + k.Name, k.Source(k.Inputs[0].Size)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// hideableSeeds lists f's hideable locals and parameters, the seeds the §4
// rule tries.
func hideableSeeds(f *ir.Func) []*ir.Var {
	var out []*ir.Var
	for _, v := range append(append([]*ir.Var(nil), f.Locals...), f.Params...) {
		if (slicer.Policy{}).HideableVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// eachSplit splits every function of every test source at every hideable
// seed and hands each split that succeeded to fn; a failed split is passed
// with its error instead.
func eachSplit(fn func(name, qn string, seed *ir.Var, sf *core.SplitFunc, err error)) {
	for _, s := range testSources() {
		prog := oracle.MustCompile(s.src)
		for _, qn := range prog.Order {
			f := prog.Funcs[qn]
			for _, v := range hideableSeeds(f) {
				sf, err := core.SplitOpts(f, v, slicer.Policy{}, core.Options{})
				fn(s.name, qn, v, sf, err)
			}
		}
	}
}

var goldenOptions = []struct {
	tag  string
	opts Options
}{{"max", Options{}}, {"min", Options{MinAtUses: true}}}

// renderReports writes one line per report of sf under both aggregation
// rules: the ILP, its statement, the AC triple, its input names, and the CC
// triple with its path count.
func renderReports(b *strings.Builder, prefix string, sf *core.SplitFunc) {
	for _, o := range goldenOptions {
		for _, r := range AnalyzeOpts(sf, o.opts) {
			fmt.Fprintf(b, "%s %s | %s | s%d | %s | %v | %s | paths=%d\n",
				prefix, o.tag, r.ILP, r.ILP.StmtID, r.AC, r.AC.InputNames(), r.CC, r.CC.Paths)
		}
	}
}

func goldenReports() string {
	var b strings.Builder
	eachSplit(func(name, qn string, seed *ir.Var, sf *core.SplitFunc, err error) {
		prefix := fmt.Sprintf("%s %s seed=%s", name, qn, seed)
		if err != nil {
			fmt.Fprintf(&b, "%s error: %v\n", prefix, err)
			return
		}
		renderReports(&b, prefix, sf)
	})
	return b.String()
}

// TestReportsMatchGolden pins every §3 report over the corpora and kernels.
// Regenerate with `go test ./internal/complexity -run ReportsMatchGolden
// -update` only when the analysis is meant to change.
func TestReportsMatchGolden(t *testing.T) {
	got := goldenReports()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, golden has %d", len(gl), len(wl))
}
