package core_test

import (
	"strings"
	"testing"

	"slicehide/internal/core"
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
				plain, err := core.SplitOpts(f, v, policy, core.Options{})
				if err != nil {
					t.Fatalf("seed %d: split %s at %s: %v", seed, qn, v, err)
				}
				batched, err := core.SplitOpts(f, v, policy, core.Options{BatchCalls: true})
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
	sf, err := core.SplitOpts(f, f.LookupVar("a"), slicer.Policy{}, core.Options{BatchCalls: true})
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
