package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"slicehide/internal/callgraph"
	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

var update = flag.Bool("update", false, "rewrite testdata/split.golden from the current transformation")

const splitGoldenPath = "testdata/split.golden"

// fallbackPolicy enables both §2.2 extensions.
var fallbackPolicy = slicer.Policy{HideGlobals: true, HideFields: true}

// goldenCase is one program the split golden pins.
type goldenCase struct {
	name   string
	src    string
	specs  []core.Spec
	policy slicer.Policy
	// unbatched pins the split without the batching pass, as the paper's
	// Figure 2 draws it.
	unbatched bool
}

// split splits the case's program as the golden and the hash pin see it.
func (c goldenCase) split() (*core.Result, error) {
	prog, err := ir.Compile(c.src)
	if err != nil {
		return nil, err
	}
	if c.unbatched {
		return splitProgramUnbatched(prog, c.specs, c.policy)
	}
	return core.SplitProgram(prog, c.specs, c.policy)
}

// fallbackCases exercise the §2.2 fallback: hidden state that outlives an
// activation lives in a shared component, and every unsplit function that
// touches it is rewritten to fetch/update calls.
var fallbackCases = []goldenCase{
	{"global-two-unsplit", `
var g: int = 7;
func f(x: int): int { var a: int = x * 2; g = a + g; return a; }
func reader(): int { return g * 3; }
func writer(v: int) { g = g + v; }
func main() {
    print(f(4));
    print(reader());
    writer(5);
    print(reader());
    print(f(1));
}
`, []core.Spec{{Func: "f", Seed: "a"}}, fallbackPolicy, false},
	{"field-read-and-write", `
class Acct {
    field bal: int;
    method deposit(x: int) {
        var t: int = x * 3 + 1;
        bal = bal + t;
    }
    method show(): int { return bal * 2; }
    method reset(v: int) { bal = v - 1; }
}
func main() {
    var a: Acct = new Acct();
    a.deposit(4);
    print(a.show());
    a.reset(10);
    a.deposit(2);
    print(a.show());
}
`, []core.Spec{{Func: "Acct.deposit", Seed: "t"}}, fallbackPolicy, false},
	{"fields-and-globals-compose", `
var counter: int = 0;
class C {
    field v: int;
    method bump(x: int) {
        var t: int = x + 1;
        v = v + t;
        counter = counter + t;
    }
}
func main() {
    var c: C = new C();
    c.bump(5);
    c.bump(7);
    print(c.v);
    print(counter);
}
`, []core.Spec{{Func: "C.bump", Seed: "t"}}, fallbackPolicy, false},
	{"global-inside-field-access", `
var g: int = 3;
class O {
    field f: int;
    method bump(x: int) {
        var t: int = x * 2;
        f = f + t;
        g = g + t;
    }
}
func mix(o: O) {
    o.f = g + o.f;
}
func main() {
    var o: O = new O();
    o.bump(4);
    mix(o);
    o.bump(1);
    mix(o);
    print(o.f);
    print(g);
}
`, []core.Spec{{Func: "O.bump", Seed: "t"}}, fallbackPolicy, false},
}

// goldenCases returns the fallback programs, Figure 2 (unbatched) and the
// four measured Table 5 kernels at their smallest input.
func goldenCases() []goldenCase {
	cases := append([]goldenCase{}, fallbackCases...)
	cases = append(cases, goldenCase{"figure2", figure2Src, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{}, true})
	for _, k := range corpus.Kernels() {
		if !k.Excluded {
			cases = append(cases, goldenCase{"kernel/" + k.Name, k.Source(k.Inputs[0].Size), k.Split, slicer.Policy{}, false})
		}
	}
	return cases
}

// renderSplit writes every open function with its hidden-call sites, every
// hidden component, and every rewritten-function list and ILP.
func renderSplit(b *strings.Builder, res *core.Result) {
	for _, qn := range res.Open.Order {
		f := res.Open.Funcs[qn]
		b.WriteString(ir.FormatFunc(f))
		ir.WalkStmts(f.Body, func(st ir.Stmt) bool {
			ir.StmtExprs(st, func(e ir.Expr) {
				ir.WalkExpr(e, func(x ir.Expr) {
					if h, ok := x.(*ir.HCallExpr); ok {
						fmt.Fprintf(b, "  hcall s%d %q frag=%d obj=%s leaks=%v noreply=%v\n",
							st.ID(), h.Component, h.FragID, ir.ExprString(h.Obj), h.Leaks, h.NoReply)
					}
				})
			})
			return true
		})
	}
	ilps := func(list []*core.ILP) {
		for _, p := range list {
			fmt.Fprintf(b, "%s: %s stmt=%d loop=%v\n", p.Func, p, p.StmtID, p.InLoop)
		}
	}
	for _, name := range res.SplitNames() {
		sf := res.Splits[name]
		b.WriteString(sf.Hidden.String())
		ilps(sf.ILPs)
	}
	shared := func(h *core.HiddenComponent, rewritten []string, list []*core.ILP) {
		b.WriteString(h.String())
		fmt.Fprintf(b, "rewritten: %s\n", strings.Join(rewritten, " "))
		ilps(list)
	}
	if g := res.Globals; g != nil {
		shared(g.Component, g.Rewritten, g.ILPs)
	}
	classes := make([]string, 0, len(res.Fields))
	for c := range res.Fields {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fi := res.Fields[c]
		shared(fi.Component, fi.Rewritten, fi.ILPs)
	}
}

func goldenSplits(t *testing.T) string {
	var b strings.Builder
	for _, c := range goldenCases() {
		res, err := c.split()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "=== %s\n", c.name)
		renderSplit(&b, res)
	}
	return b.String()
}

// TestSplitMatchesGolden pins the whole split — open functions, hidden
// components, rewritten functions and ILPs — of the fallback programs,
// Figure 2 and the kernels. No corpus or kernel hides a global or a field,
// so this is the only pin on the §2.2 fallback's output. Regenerate with
// `go test ./internal/core -run SplitMatchesGolden -update` only when the
// transformation is meant to change.
func TestSplitMatchesGolden(t *testing.T) {
	got := goldenSplits(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(splitGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(splitGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(splitGoldenPath)
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

// corpusSplit splits one Table-1 corpus program the way the split_corpus
// benchmark does, in one SplitProgram call: every function the call-graph
// cut chooses, at slicer.BestSeed.
func corpusSplit(t *testing.T, p corpus.Profile) *core.Result {
	t.Helper()
	prog := corpus.MustCompile(p)
	chosen, _ := callgraph.Build(prog).Cut("main", callgraph.CutOptions{
		AvoidRecursive:  true,
		AvoidLoopCalled: true,
		Eligible: func(q string) bool {
			f := prog.Func(q)
			if f == nil || q == "main" {
				return false
			}
			seed, sl := slicer.BestSeed(f, slicer.Policy{})
			return seed != nil && sl.Size() >= 3
		},
	})
	var specs []core.Spec
	for _, fn := range chosen {
		seed, _ := slicer.BestSeed(prog.Func(fn), slicer.Policy{})
		specs = append(specs, core.Spec{Func: fn, Seed: seed.Name})
	}
	res, err := core.SplitProgram(prog, specs, slicer.Policy{})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res
}

// TestRegistryHashPinned pins the compiled registry's Program.Hash for every
// golden program and for one small program per Table-1 corpus profile.
// Recovery refuses a data dir whose recorded hash differs from the
// recompiled registry's, so a change to layouts, slot order or bytecode
// that moves these values strands every existing data dir.
func TestRegistryHashPinned(t *testing.T) {
	want := map[string]uint64{
		"global-two-unsplit":         0x701210c53bb7bcee,
		"field-read-and-write":       0xe0ccff953f178704,
		"fields-and-globals-compose": 0xdf8d6889cc14928a,
		"global-inside-field-access": 0x911f1780a03aac5f,
		"figure2":                    0xae88ae058ec6d409,
		"kernel/javac":               0x40b3320fb64159fe,
		"kernel/jess":                0xb6709c150322cb88,
		"kernel/jasmin":              0x7f556b2be73f98ba,
		"kernel/bloat":               0xf03615d256609f01,
		"corpus/javac":               0x21284a2a7a3519cc,
		"corpus/jess":                0x95d573b50c04115b,
		"corpus/jasmin":              0xa006198557ca55d3,
		"corpus/bloat":               0x6c698ba0cb5848a9,
		"corpus/jfig":                0x071efc9adfa74d93,
	}
	got := map[string]uint64{}
	for _, c := range goldenCases() {
		res, err := c.split()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = hrt.NewRegistry(res).Prog.Hash
	}
	for _, p := range corpus.Profiles {
		p = p.Scale(0.05)
		p.Seed += 42_000
		got["corpus/"+p.Name] = hrt.NewRegistry(corpusSplit(t, p)).Prog.Hash
	}
	if len(got) != len(want) {
		t.Fatalf("%d programs, %d pinned hashes", len(got), len(want))
	}
	for name, h := range got {
		if h != want[name] {
			t.Errorf("%s: Program.Hash = %#016x, want %#016x", name, h, want[name])
		}
	}
}

// TestFallbackCasesEquivalent runs each fallback program split and unsplit:
// the golden pins text, this pins behaviour.
func TestFallbackCasesEquivalent(t *testing.T) {
	for _, c := range fallbackCases {
		res, err := core.SplitProgram(ir.MustCompile(c.src), c.specs, c.policy)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		same, want, got, err := hrt.Equivalent(res, 1_000_000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !same {
			t.Errorf("%s: split changed behaviour:\nwant:\n%s\ngot:\n%s", c.name, want, got)
		}
	}
}
