package core_test

import (
	"slices"
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
)

// figure2Src mirrors the paper's Figure 2 example.
const figure2Src = `
func f(x: int, y: int, z: int): int {
    var a: int = 3 * x + y;
    var b: int = 0;
    var sum: int = 0;
    var i: int = a;
    var B: int[] = new int[z + 1];
    while (i < z) {
        b = 2 * i;
        sum = sum + b;
        B[i] = b;
        i = i + 1;
    }
    if (sum > 100) {
        sum = sum - 100;
    } else {
        B[0] = x;
    }
    return sum;
}
func main() {
    print(f(1, 2, 10));
    print(f(3, 1, 25));
    print(f(0, 0, 4));
}
`

func splitProg(t *testing.T, src string, specs []core.Spec, policy slicer.Policy) *core.Result {
	t.Helper()
	prog, err := ir.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := core.SplitProgram(prog, specs, policy)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	return res
}

func checkEquivalent(t *testing.T, src string, specs []core.Spec) *core.Result {
	t.Helper()
	res := splitProg(t, src, specs, slicer.Policy{})
	same, want, got, err := hrt.Equivalent(res, 10_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !same {
		t.Fatalf("split changed behavior.\noriginal:\n%s\nsplit:\n%s\nopen:\n%s\nhidden:\n%s",
			want, got, ir.FormatFunc(res.Splits[specs[0].Func].Open), res.Splits[specs[0].Func].Hidden)
	}
	return res
}

func TestFigure2Equivalence(t *testing.T) {
	checkEquivalent(t, figure2Src, []core.Spec{{Func: "f", Seed: "a"}})
}

func TestFigure2Structure(t *testing.T) {
	res := splitProg(t, figure2Src, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	sf := res.Splits["f"]

	// All four variables of the slice are hidden.
	hv := strings.Join(varNames(sf.Hidden.Vars), " ")
	if hv != "a b i sum" {
		t.Errorf("hidden vars: %s", hv)
	}

	// The while loop contains an array store (B[i] = b), so the loop stays
	// in Of as a driver loop with a hidden predicate; the if-then is fully
	// movable and else open, so the if becomes a hidden then-branch.
	openText := ir.FormatFunc(sf.Open)
	if !strings.Contains(openText, "while H(") {
		t.Errorf("expected driver loop with hidden predicate:\n%s", openText)
	}
	if strings.Contains(openText, "sum") || strings.Contains(openText, " a ") {
		t.Errorf("hidden variables leaked into open component:\n%s", openText)
	}

	// ILPs exist: the paper's example has four (loop predicate per entry,
	// B[i] leak, branch predicate, return value).
	if len(sf.ILPs) < 4 {
		t.Errorf("expected at least 4 ILPs, got %d: %v", len(sf.ILPs), sf.ILPs)
	}
	kinds := map[core.ILPKind]int{}
	for _, p := range sf.ILPs {
		kinds[p.Kind]++
	}
	if kinds[core.ILPCond] < 2 {
		t.Errorf("expected >=2 predicate ILPs (loop + branch), got %v", kinds)
	}
	if kinds[core.ILPLeakAssign] < 1 {
		t.Errorf("expected a case-(iii) leak for B[i] = b, got %v", kinds)
	}

	// Hidden component contains hidden predicates and flow.
	var hidesPred, hidesFlow int
	for _, fr := range sf.Hidden.Frags {
		if fr.HidesPredicate {
			hidesPred++
		}
		if fr.HidesFlow {
			hidesFlow++
		}
	}
	if hidesPred == 0 || hidesFlow == 0 {
		t.Errorf("expected hidden predicates and hidden flow (pred=%d flow=%d)\n%s",
			hidesPred, hidesFlow, sf.Hidden)
	}
}

func varNames(vs []*ir.Var) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

func TestWholeLoopHidden(t *testing.T) {
	// Seeding at i pulls acc into the slice (acc's def uses i), so the
	// loop body touches only hidden scalars and moves entirely to Hf.
	res := checkEquivalent(t, `
func f(n: int): int {
    var acc: int = 1;
    var i: int = 0;
    while (i < n) {
        acc = acc * 2 + i;
        i = i + 1;
    }
    return acc;
}
func main() { print(f(10)); print(f(0)); print(f(1)); }
`, []core.Spec{{Func: "f", Seed: "i"}})
	sf := res.Splits["f"]
	openText := ir.FormatFunc(sf.Open)
	if strings.Contains(openText, "while") {
		t.Errorf("loop should be fully hidden:\n%s", openText)
	}
	var loopFrag *core.Fragment
	for _, fr := range sf.Hidden.Frags {
		if fr.HasLoop {
			loopFrag = fr
		}
	}
	if loopFrag == nil || !loopFrag.HidesFlow || !loopFrag.HidesPredicate {
		t.Errorf("expected a flow-hiding loop fragment:\n%s", sf.Hidden)
	}
}

func TestIfThenElseFullyHidden(t *testing.T) {
	res := checkEquivalent(t, `
func f(x: int): int {
    var a: int = x * 7;
    if (a > 10) { a = a - 10; } else { a = a + 1; }
    return a;
}
func main() { print(f(3)); print(f(1)); print(f(0)); }
`, []core.Spec{{Func: "f", Seed: "a"}})
	openText := ir.FormatFunc(res.Splits["f"].Open)
	if strings.Contains(openText, "if ") {
		t.Errorf("if should be fully hidden:\n%s", openText)
	}
}

func TestIfThenElseDegradesToIfThen(t *testing.T) {
	// The else branch prints (cannot move); then branch is hidden; the open
	// component keeps only the else under a negated leaked predicate.
	res := checkEquivalent(t, `
func f(x: int): int {
    var a: int = x + 1;
    if (a > 2) {
        a = a * 3;
    } else {
        print("small");
    }
    return a;
}
func main() { print(f(5)); print(f(0)); }
`, []core.Spec{{Func: "f", Seed: "a"}})
	openText := ir.FormatFunc(res.Splits["f"].Open)
	if !strings.Contains(openText, "if !H(") {
		t.Errorf("expected if-then with negated hidden predicate:\n%s", openText)
	}
	if strings.Contains(openText, "else") {
		t.Errorf("if-then-else should degrade to if-then:\n%s", openText)
	}
}

func TestSendCaseWithCall(t *testing.T) {
	res := checkEquivalent(t, `
func g(v: int): int { return v * v; }
func f(x: int): int {
    var a: int = x + 2;
    a = g(a) + 1;
    a = a * 2;
    return a;
}
func main() { print(f(3)); }
`, []core.Spec{{Func: "f", Seed: "a"}})
	sf := res.Splits["f"]
	// g(a): a must be fetched (ILP), computed openly, then sent (update).
	var updates, fetches int
	for _, fr := range sf.Hidden.Frags {
		switch fr.Kind {
		case core.FragUpdate:
			updates++
		case core.FragFetch:
			fetches++
		}
	}
	if updates == 0 {
		t.Errorf("expected an update fragment for case (ii):\n%s", sf.Hidden)
	}
	if fetches == 0 {
		t.Errorf("expected a fetch fragment for the call argument:\n%s", sf.Hidden)
	}
	if len(sf.PartiallyHidden) == 0 {
		t.Errorf("a must be partially hidden: %v", sf.PartiallyHidden)
	}
}

func TestFullyVsPartiallyHidden(t *testing.T) {
	res := checkEquivalent(t, figure2Src, []core.Spec{{Func: "f", Seed: "a"}})
	sf := res.Splits["f"]
	// In Figure 2, every hidden variable's defs move to Hf: all fully hidden.
	if len(sf.FullyHidden) != 4 || len(sf.PartiallyHidden) != 0 {
		t.Errorf("fully=%v partially=%v", varNames(sf.FullyHidden), varNames(sf.PartiallyHidden))
	}
}

func TestRecursiveSplitFunctionInstances(t *testing.T) {
	// Recursive split functions need one hidden activation per call.
	checkEquivalent(t, `
func fact(n: int): int {
    var acc: int = 1;
    if (n > 1) {
        acc = n * fact(n - 1);
    }
    return acc;
}
func main() { print(fact(6)); }
`, []core.Spec{{Func: "fact", Seed: "acc"}})
}

func TestSplitSeedParam(t *testing.T) {
	checkEquivalent(t, `
func f(x: int): int {
    var y: int = x * 2 + 1;
    x = y - x;
    return x + y;
}
func main() { print(f(10)); }
`, []core.Spec{{Func: "f", Seed: "x"}})
}

func TestShortCircuitTrapPreserved(t *testing.T) {
	// i < len(B) && B[i] > 0 — hiding must not hoist B[i] eagerly.
	checkEquivalent(t, `
func f(n: int): int {
    var i: int = n * 2;
    var B: int[] = new int[5];
    B[0] = 7;
    var r: int = 0;
    if (i < len(B) && B[i] > 0) {
        r = 1;
    }
    return r + i;
}
func main() { print(f(1)); print(f(4)); }
`, []core.Spec{{Func: "f", Seed: "i"}})
}

func TestArrayReadsShippedAsArguments(t *testing.T) {
	// Hidden computation consuming array elements: elements are evaluated
	// openly and shipped per call (the paper's javac pattern).
	checkEquivalent(t, `
func f(n: int): int {
    var B: int[] = new int[n];
    for (var k: int = 0; k < n; k++) { B[k] = k * 3; }
    var s: int = 0;
    var i: int = 0;
    while (i < n) {
        s = s + B[i];
        i = i + 1;
    }
    return s;
}
func main() { print(f(8)); }
`, []core.Spec{{Func: "f", Seed: "s"}})
}

func TestBestSeedAutoSelection(t *testing.T) {
	res := checkEquivalent(t, figure2Src, []core.Spec{{Func: "f"}})
	if res.Splits["f"].Seed == nil {
		t.Fatal("no seed selected")
	}
}

func TestErrorOnUnknownFunc(t *testing.T) {
	prog := ir.MustCompile(`func main() { }`)
	if _, err := core.SplitProgram(prog, []core.Spec{{Func: "nope"}}, slicer.Policy{}); err == nil {
		t.Fatal("expected error for unknown function")
	}
}

func TestErrorOnUnknownSeed(t *testing.T) {
	prog := ir.MustCompile(`func f() { var a: int = 1; print(a); } func main() { f(); }`)
	if _, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "zzz"}}, slicer.Policy{}); err == nil {
		t.Fatal("expected error for unknown seed")
	}
}

func TestErrorOnNonScalarSeed(t *testing.T) {
	prog := ir.MustCompile(`func f() { var a: int[] = new int[3]; print(len(a)); } func main() { f(); }`)
	if _, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{}); err == nil {
		t.Fatal("expected error for aggregate seed")
	}
}

func TestHiddenGlobalSharedAcrossFunctions(t *testing.T) {
	// The §2.2 global-variable extension: g is hidden by splitting f; the
	// other functions' references become fetch/update calls against the
	// shared hidden-globals component.
	src := `
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
    print(g);
}
`
	prog := ir.MustCompile(src)
	res, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{HideGlobals: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Globals == nil || len(res.Globals.Component.Vars) != 1 {
		t.Fatalf("globals component missing: %+v", res.Globals)
	}
	if len(res.Globals.Rewritten) < 3 { // reader, writer, main
		t.Errorf("rewritten functions: %v", res.Globals.Rewritten)
	}
	if len(res.Globals.ILPs) == 0 {
		t.Error("global fetches must be counted as ILPs")
	}
	same, want, got, err := hrt.Equivalent(res, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("globals extension changed behavior:\n%s\nvs\n%s", want, got)
	}
	// The open text of rewritten functions must not mention g.
	for _, qn := range res.Globals.Rewritten {
		text := ir.FormatFunc(res.Open.Funcs[qn])
		if strings.Contains(text, " g ") || strings.Contains(text, " g;") || strings.Contains(text, "= g") {
			t.Errorf("%s still references hidden global:\n%s", qn, text)
		}
	}
}

// TestAllILPsCountsFallbackFetches: a hidden global read by an unsplit
// function is fetched there, and that fetch is an ILP that AllILPs lists
// after the split's own.
func TestAllILPsCountsFallbackFetches(t *testing.T) {
	res := splitProg(t, `
var g: int = 7;
func f(x: int): int { var a: int = x * 2; g = a + g; return a; }
func reader(): int { return g * 3; }
func main() { print(f(4)); print(reader()); }
`, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{HideGlobals: true})
	if res.Globals == nil || len(res.Globals.ILPs) != 1 || res.Globals.ILPs[0].Func != "reader" {
		t.Fatalf("want one fetch ILP in reader, got %+v", res.Globals)
	}
	want := append(append([]*core.ILP{}, res.Splits["f"].ILPs...), res.Globals.ILPs...)
	if got := res.AllILPs(); !slices.Equal(got, want) {
		t.Errorf("AllILPs = %v, want %v", got, want)
	}
}

func TestHiddenGlobalNonConstInitRejected(t *testing.T) {
	prog := ir.MustCompile(`
func seed(): int { return 3; }
var g: int = 1;
func init2() { g = seed(); }
func f(x: int): int { var a: int = x; g = a; return a; }
func main() { init2(); print(f(2)); print(g); }
`)
	// Constant initializer: fine.
	if _, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{HideGlobals: true}); err != nil {
		t.Fatalf("constant init must be accepted: %v", err)
	}
	prog2 := ir.MustCompile(`
func seed(): int { return 3; }
var g: int = seed();
func f(x: int): int { var a: int = x; g = a; return a; }
func main() { print(f(2)); print(g); }
`)
	if _, err := core.SplitProgram(prog2, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{HideGlobals: true}); err == nil {
		t.Fatal("non-constant global initializer must be rejected")
	}
}

func TestHiddenGlobalTwoSplitsRejected(t *testing.T) {
	prog := ir.MustCompile(`
var g: int = 0;
func f(x: int): int { var a: int = x; g = a; return a; }
func h(y: int): int { var b: int = y + g; return b; }
func main() { print(f(1)); print(h(2)); }
`)
	_, err := core.SplitProgram(prog,
		[]core.Spec{{Func: "f", Seed: "a"}, {Func: "h", Seed: "b"}},
		slicer.Policy{HideGlobals: true})
	if err == nil {
		t.Fatal("two splits sharing a hidden global must be rejected")
	}
}

func TestMethodSplit(t *testing.T) {
	checkEquivalent(t, `
class Acc {
    field total: int;
    method add(x: int): int {
        var t: int = x * 2;
        t = t + 1;
        total = total + t;
        return total;
    }
}
func main() {
    var a: Acc = new Acc();
    print(a.add(1));
    print(a.add(5));
}
`, []core.Spec{{Func: "Acc.add", Seed: "t"}})
}

func TestStatsShape(t *testing.T) {
	res := splitProg(t, figure2Src, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	st := res.Splits["f"].Stats()
	if st.SliceStatements == 0 || st.ILPs == 0 || st.Fragments == 0 || st.HiddenVars != 4 {
		t.Errorf("stats: %+v", st)
	}
	if res.TotalSliceStatements() != st.SliceStatements {
		t.Errorf("total slice stmts mismatch")
	}
}

func TestMultipleSplitFunctions(t *testing.T) {
	checkEquivalent(t, `
func f(x: int): int { var a: int = x * 2; a = a + 1; return a; }
func g(y: int): int { var b: int = y + 10; b = b * b; return b; }
func main() { print(f(3) + g(4)); }
`, []core.Spec{{Func: "f", Seed: "a"}, {Func: "g", Seed: "b"}})
}

func TestDivisionByZeroBehaviorPreserved(t *testing.T) {
	// Both versions must fail with the same error.
	src := `
func f(x: int): int {
    var a: int = x - x;
    var r: int = 10 / a;
    return r;
}
func main() { print(f(5)); }
`
	res := splitProg(t, src, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	_, _, err1 := hrt.RunOriginal(res.Orig, 1_000_000)
	out := hrt.RunSplit(res, nil, 1_000_000)
	if err1 == nil || out.Err == nil {
		t.Fatalf("both must fail: orig=%v split=%v", err1, out.Err)
	}
	if !strings.Contains(err1.Error(), "division by zero") || !strings.Contains(out.Err.Error(), "division by zero") {
		t.Fatalf("errors differ: orig=%v split=%v", err1, out.Err)
	}
}

func TestBatchingPreservesBehaviorAndReducesInteractions(t *testing.T) {
	prog := ir.MustCompile(figure2Src)
	plain, err := splitProgramUnbatched(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := hrt.RunOriginal(prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	outPlain := hrt.RunSplit(plain, nil, 1_000_000)
	outBatched := hrt.RunSplit(batched, nil, 1_000_000)
	if outPlain.Err != nil || outBatched.Err != nil {
		t.Fatal(outPlain.Err, outBatched.Err)
	}
	if outPlain.Output != want || outBatched.Output != want {
		t.Fatalf("outputs differ: want %q plain %q batched %q", want, outPlain.Output, outBatched.Output)
	}
	if outBatched.Interactions >= outPlain.Interactions {
		t.Errorf("batching must reduce interactions: %d vs %d", outBatched.Interactions, outPlain.Interactions)
	}
	// The Figure 2 prologue (four adjacent exec calls) merges into one.
	text := ir.FormatFunc(batched.Splits["f"].Open)
	if strings.Count(text, "H(") >= strings.Count(ir.FormatFunc(plain.Splits["f"].Open), "H(") {
		t.Errorf("open component call sites not reduced:\n%s", text)
	}
}

func TestBatchingOnRandomPrograms(t *testing.T) {
	// Batching must preserve behavior across the random-program corpus.
	for seed := int64(200); seed < 230; seed++ {
		prog, err := ir.Compile(oracle.RandProgram(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := hrt.RunOriginal(prog, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, qn := range prog.Order {
			if qn == "main" {
				continue
			}
			seedVar, _ := slicer.BestSeed(prog.Funcs[qn], slicer.Policy{})
			if seedVar == nil {
				continue
			}
			res, err := core.SplitProgram(prog, []core.Spec{{Func: qn, Seed: seedVar.Name}}, slicer.Policy{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, qn, err)
			}
			out := hrt.RunSplit(res, nil, 50_000_000)
			if out.Err != nil {
				t.Fatalf("seed %d %s: %v", seed, qn, out.Err)
			}
			if out.Output != want {
				t.Fatalf("seed %d: batching changed output of %s split:\nwant %q\ngot  %q",
					seed, qn, want, out.Output)
			}
		}
	}
}

// TestParseSpecs pins the -split list syntax every command parses through
// core.ParseSpecs.
func TestParseSpecs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []core.Spec
	}{
		{"", nil},
		{"  ", nil},
		{"f", []core.Spec{{Func: "f"}}},
		{"f:", []core.Spec{{Func: "f"}}},
		{"f:a", []core.Spec{{Func: "f", Seed: "a"}}},
		{" f : a , C.bump:t ", []core.Spec{{Func: "f", Seed: "a"}, {Func: "C.bump", Seed: "t"}}},
		{"f:a,,g", []core.Spec{{Func: "f", Seed: "a"}, {Func: "g"}}},
	} {
		if got := core.ParseSpecs(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("ParseSpecs(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
