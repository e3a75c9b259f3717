package ir_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slicehide/internal/corpus"
	"slicehide/internal/ir"
)

var update = flag.Bool("update", false, "rewrite testdata/build.golden from the current front end")

const goldenPath = "testdata/build.golden"

// source is one program the corpus-wide tests compile.
type source struct{ name, src string }

// corpusSeeds perturb each profile's generator seed the way `go run ./bench`
// does, so the corpus-wide tests see three different programs per profile.
var corpusSeeds = []int64{1, 77, 401}

// testSources returns the five Table 1 corpora at 1/20 scale under each of
// corpusSeeds, then the four measured Table 5 kernels at their smallest
// input.
func testSources() []source {
	var out []source
	for _, seed := range corpusSeeds {
		for _, p := range corpus.Profiles {
			p = p.Scale(0.05)
			p.Seed += seed * 1000
			out = append(out, source{fmt.Sprintf("corpus/%s@%d", p.Name, seed), corpus.Generate(p)})
		}
	}
	for _, k := range corpus.Kernels() {
		if !k.Excluded {
			out = append(out, source{"kernel/" + k.Name, k.Source(k.Inputs[0].Size)})
		}
	}
	return out
}

func varNames(vs []*ir.Var) string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return strings.Join(names, ",")
}

// renderProgram writes one line per function of prog, in source order: its
// qualified name, its parameters and locals in order under their uniquified
// names, and the SHA-256 of its printed IR.
func renderProgram(b *strings.Builder, name string, prog *ir.Program) {
	for _, qn := range prog.Order {
		f := prog.Funcs[qn]
		fmt.Fprintf(b, "%s %s params=%s locals=%s ir=%x\n",
			name, qn, varNames(f.Params), varNames(f.Locals), sha256.Sum256([]byte(ir.FormatFunc(f))))
	}
}

func goldenBuild(t *testing.T) string {
	var b strings.Builder
	for _, s := range testSources() {
		prog, err := ir.Compile(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		renderProgram(&b, s.name, prog)
	}
	return b.String()
}

// TestBuildMatchesGolden pins the front end's output over the corpora and
// kernels: every function's variables and printed IR. Regenerate with
// `go test ./internal/ir -run BuildMatchesGolden -update` only when lowering
// is meant to change.
func TestBuildMatchesGolden(t *testing.T) {
	got := goldenBuild(t)
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
