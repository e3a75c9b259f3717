package core_test

import (
	"fmt"
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
)

// isBatchFrag identifies fragments produced by mergeRun.
func isBatchFrag(fr *core.Fragment) bool {
	return fr != nil && strings.HasPrefix(fr.Note, "batch of")
}

// TestPropertyBatchingPreservesBehavior is the batching analogue of the
// central split property: for randomly generated programs, merging runs of
// adjacent non-leaking hidden calls — including runs inside nested if/while
// bodies — must not change program output, must never increase the
// interaction count, and must never merge a fragment whose body returns
// early (an early return would skip the rest of a combined body).
func TestPropertyBatchingPreservesBehavior(t *testing.T) {
	policy := slicer.Policy{}
	programs := 40
	if testing.Short() {
		programs = 10
	}
	splitsChecked, batchedFrags := 0, 0
	for seed := int64(200); seed < 200+int64(programs); seed++ {
		src := oracle.RandProgram(seed)
		prog, err := ir.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, src)
		}
		want, _, err := hrt.RunOriginal(prog, 10_000_000)
		if err != nil {
			t.Fatalf("seed %d: original run failed: %v\n%s", seed, err, src)
		}
		for _, qn := range prog.Order {
			if qn == "main" {
				continue
			}
			f := prog.Funcs[qn]
			candidates := append([]*ir.Var(nil), f.Locals...)
			candidates = append(candidates, f.Params...)
			for _, v := range candidates {
				if !policy.HideableVar(v) {
					continue
				}
				plain, err := core.SplitUnbatched(f, v, policy, core.Options{})
				if err != nil {
					t.Fatalf("seed %d: unbatched split %s at %s: %v", seed, qn, v, err)
				}
				batched, err := core.SplitOpts(f, v, policy, core.Options{})
				if err != nil {
					t.Fatalf("seed %d: batched split %s at %s: %v", seed, qn, v, err)
				}
				if len(batched.ILPs) == 0 && len(batched.Hidden.Frags) == 0 {
					continue
				}
				for _, fr := range batched.Hidden.Frags {
					if !isBatchFrag(fr) {
						continue
					}
					batchedFrags++
					ir.WalkStmts(fr.Body, func(st ir.Stmt) bool {
						if _, ok := st.(*ir.ReturnStmt); ok {
							t.Fatalf("seed %d: split %s at %s merged an early-returning fragment:\n%s",
								seed, qn, v, fr)
						}
						return true
					})
				}
				outPlain := hrt.RunSplit(assemble(prog, plain), nil, 50_000_000)
				outBatch := hrt.RunSplit(assemble(prog, batched), nil, 50_000_000)
				if outBatch.Err != nil {
					t.Fatalf("seed %d: batched split %s at %s: run: %v\nprogram:\n%s\nopen:\n%s\nhidden:\n%s",
						seed, qn, v, outBatch.Err, src, ir.FormatFunc(batched.Open), batched.Hidden)
				}
				if outBatch.Output != want {
					t.Fatalf("seed %d: batching %s at %s changed output.\nwant %q\ngot  %q\nprogram:\n%s\nopen:\n%s\nhidden:\n%s",
						seed, qn, v, want, outBatch.Output, src, ir.FormatFunc(batched.Open), batched.Hidden)
				}
				if outPlain.Err == nil && outBatch.Interactions > outPlain.Interactions {
					t.Fatalf("seed %d: batching %s at %s increased interactions: %d vs %d",
						seed, qn, v, outBatch.Interactions, outPlain.Interactions)
				}
				splitsChecked++
			}
		}
	}
	if splitsChecked < programs {
		t.Fatalf("property exercised too few splits: %d", splitsChecked)
	}
	if batchedFrags == 0 {
		t.Fatal("no merged fragments were ever produced; the property is vacuous")
	}
	t.Logf("verified %d batched splits (%d merged fragments) across %d random programs",
		splitsChecked, batchedFrags, programs)
}

// TestBatchingInsideNestedControlFlow pins the recursion into if/while
// bodies: runs of adjacent updates nested two constructs deep are merged,
// and output is preserved.
func TestBatchingInsideNestedControlFlow(t *testing.T) {
	const src = `
func f(x: int, y: int): int {
    var a: int = x * 2 + y;
    var s: int = 0;
    var i: int = 0;
    while (i < 6) {
        if (i - 2 > 0) {
            a = a + 3;
            s = s + a;
            a = a - 1;
        } else {
            a = a * 2;
            s = s - a;
        }
        i = i + 1;
    }
    return s;
}
func main() { print(f(3, 1)); print(f(0, 2)); }`
	prog, err := ir.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := hrt.RunOriginal(prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["f"]
	sf, err := core.Split(f, f.LookupVar("a"), slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	for _, fr := range sf.Hidden.Frags {
		if isBatchFrag(fr) {
			merged++
		}
	}
	if merged == 0 {
		t.Fatalf("no merged fragments inside nested if/while:\nopen:\n%s\nhidden:\n%s",
			ir.FormatFunc(sf.Open), sf.Hidden)
	}
	out := hrt.RunSplit(assemble(prog, sf), nil, 1_000_000)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Output != want {
		t.Fatalf("batched output %q, want %q", out.Output, want)
	}
}

// TestBatchingRepeatedFragment pins the rule that a fragment joins a run at
// most once. Each conditional assignment to a reads an array element in a
// lazy arm, so it is computed openly and sent through the one update
// fragment of a; merged into a single body, the second copy would read the
// first copy's argument.
func TestBatchingRepeatedFragment(t *testing.T) {
	checkBatched(t, `
func f(x: int, y: int): int {
    var B: int[] = new int[1];
    B[0] = y;
    var a: int = x * 2;
    var s: int = 0;
    s = s + a;
    a = x > 0 ? B[0] : 1;
    s = s + a;
    a = x > 1 ? B[0] + 2 : 3;
    s = s + a;
    return s;
}
func main() { print(f(3, 10)); print(f(1, 4)); }`, slicer.Policy{}, 3)
}

// TestBatchingKeepsCallArgumentsInPlace pins the rule that an argument
// holding a call is never merged: reader, rewritten by the §2.2 fallback to
// fetch the hidden global g, must see the g that the call before it wrote.
func TestBatchingKeepsCallArgumentsInPlace(t *testing.T) {
	checkBatched(t, `
var g: int = 7;
func reader(): int { return g * 3; }
func f(x: int): int {
    var a: int = x * 2;
    g = a + g;
    a = reader();
    return a;
}
func main() { print(f(4)); print(f(1)); print(g); }`, slicer.Policy{HideGlobals: true}, 3)
}

// checkBatched splits src's f at a and checks that the split prints what
// the original does through an open component making calls hidden calls.
func checkBatched(t *testing.T, src string, policy slicer.Policy, calls int) {
	t.Helper()
	res, err := core.SplitProgram(ir.MustCompile(src), []core.Spec{{Func: "f", Seed: "a"}}, policy)
	if err != nil {
		t.Fatal(err)
	}
	open := ir.FormatFunc(res.Splits["f"].Open)
	same, want, got, err := hrt.Equivalent(res, 1_000_000)
	if err != nil || !same {
		t.Fatalf("batched split printed %q (%v), want %q:\nopen:\n%s\nhidden:\n%s", got, err, want, open, res.Splits["f"].Hidden)
	}
	if n := strings.Count(open, "H("); n != calls {
		t.Errorf("open component makes %d hidden calls, want %d:\n%s", n, calls, open)
	}
}

// orphanFrags names each fragment of a split's own hidden component that no
// H(...) in the split's open function calls.
func orphanFrags(res *core.Result) []string {
	var out []string
	for _, name := range res.SplitNames() {
		named := make(map[int]bool)
		ir.WalkStmts(res.Open.Funcs[name].Body, func(st ir.Stmt) bool {
			ir.StmtExprs(st, func(e ir.Expr) {
				ir.WalkExpr(e, func(x ir.Expr) {
					if h, ok := x.(*ir.HCallExpr); ok && h.Component == "" {
						named[h.FragID] = true
					}
				})
			})
			return true
		})
		for _, id := range res.Splits[name].Hidden.FragIDs() {
			if !named[id] {
				out = append(out, fmt.Sprintf("%s frag %d", name, id))
			}
		}
	}
	return out
}

// TestNoOrphanFragments is the contract that a merged run replaces the
// fragments it merged: every fragment of every split's hidden component is
// named by a call in that split's open code, so nothing dead is compiled,
// hashed into Program.Hash or loaded by a server. It covers every kernel,
// every corpus profile at scale 0.01 and every hideable seed of the random
// programs 200–239.
func TestNoOrphanFragments(t *testing.T) {
	check := func(what string, res *core.Result) {
		t.Helper()
		if orphans := orphanFrags(res); len(orphans) > 0 {
			t.Errorf("%s: %d fragments no open call names: %v", what, len(orphans), orphans)
		}
	}
	for _, k := range corpus.Kernels() {
		for _, in := range k.Inputs {
			res, err := core.SplitProgram(ir.MustCompile(k.Source(in.Size)), k.Split, slicer.Policy{})
			if err != nil {
				t.Fatalf("kernel %s %s: %v", k.Name, in.Label, err)
			}
			check("kernel "+k.Name+" "+in.Label, res)
		}
	}
	for _, p := range corpus.Profiles {
		check("corpus "+p.Name, corpusSplit(t, p.Scale(0.01)))
	}
	policy := slicer.Policy{}
	for seed := int64(200); seed < 240; seed++ {
		prog, err := ir.Compile(oracle.RandProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, qn := range prog.Order {
			f := prog.Funcs[qn]
			if qn == "main" {
				continue
			}
			for _, v := range append(append([]*ir.Var(nil), f.Locals...), f.Params...) {
				if !policy.HideableVar(v) {
					continue
				}
				sf, err := core.SplitOpts(f, v, policy, core.Options{})
				if err != nil {
					t.Fatalf("seed %d: split %s at %s: %v", seed, qn, v, err)
				}
				check(fmt.Sprintf("seed %d %s at %s", seed, qn, v), assemble(prog, sf))
			}
		}
	}
}
