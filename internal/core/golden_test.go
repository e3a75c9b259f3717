package core_test

import (
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

// TestFigure2Golden locks the exact open component produced for the paper's
// Figure 2 example, unbatched as the paper draws it. Any change to this
// text is a deliberate change to the transformation and must be reviewed
// against §2.2.
func TestFigure2Golden(t *testing.T) {
	prog := ir.MustCompile(figure2Src)
	res, err := splitProgramUnbatched(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	got := ir.FormatFunc(res.Splits["f"].Open)
	want := `func f(x: int, y: int, z: int): int {
    [0] H(0, [x, y])
    [1] H(1, [])
    [2] H(2, [])
    [3] H(3, [])
    [4] B = new int[z + 1]
    [9] while H(4, [z]) {
        [5] H(5, [])
        [6] H(6, [])
        [7] B[H(8, [])] = H(7, [])
        [8] H(9, [])
    }
    [11] if !H(10, []) {
        [10] B[0] = x
    }
    [12] return H(11, [])
}
`
	if got != want {
		t.Errorf("Figure 2 open component changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Stability: two splits of the same input are textually identical.
	res2, err := splitProgramUnbatched(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if got2 := ir.FormatFunc(res2.Splits["f"].Open); got2 != got {
		t.Error("split output not deterministic")
	}
	if h1, h2 := res.Splits["f"].Hidden.String(), res2.Splits["f"].Hidden.String(); h1 != h2 {
		t.Error("hidden component not deterministic")
	}
}

// TestHiddenComponentGoldenShape locks key structural facts of the Figure 2
// hidden component without pinning every character.
func TestHiddenComponentGoldenShape(t *testing.T) {
	prog := ir.MustCompile(figure2Src)
	res, err := splitProgramUnbatched(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	text := res.Splits["f"].Hidden.String()
	for _, want := range []string{
		"vars: a b i sum",
		"a = (3 * $a0) + $a1", // the seed definition, inputs as args
		"b = 2 * i",           // loop body fully hidden
		"sum = sum + b",
		"i = i + 1",
		"return i < $a0",  // hidden loop predicate (driver loop)
		"return sum",      // the fetch behind the paper's ILP-4
		"sum = sum - 100", // hidden then-branch
	} {
		if !strings.Contains(text, want) {
			t.Errorf("hidden component missing %q:\n%s", want, text)
		}
	}
}
