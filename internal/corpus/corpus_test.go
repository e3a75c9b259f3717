package corpus

import (
	"strings"
	"testing"

	"slicehide/internal/callgraph"
	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
)

func TestProfilesMatchPaperTable1(t *testing.T) {
	// Category sums must reproduce the paper's Table 1 columns.
	want := map[string][4]int{ // methods, self-contained, >10, excl-init
		"jfig":   {2987, 21, 6, 0},
		"jess":   {1622, 6, 6, 0},
		"bloat":  {3839, 35, 9, 1},
		"javac":  {1898, 16, 8, 8},
		"jasmin": {645, 7, 5, 3},
	}
	for _, p := range Profiles {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %s", p.Name)
			continue
		}
		if p.Methods != w[0] {
			t.Errorf("%s: methods %d, want %d", p.Name, p.Methods, w[0])
		}
		if got := p.SelfContained(); got != w[1] {
			t.Errorf("%s: self-contained %d, want %d", p.Name, got, w[1])
		}
		if got := p.SelfContainedBigInit + p.SelfContainedBigNonInit; got != w[2] {
			t.Errorf("%s: self-contained>10 %d, want %d", p.Name, got, w[2])
		}
		if p.SelfContainedBigNonInit != w[3] {
			t.Errorf("%s: excl-init %d, want %d", p.Name, p.SelfContainedBigNonInit, w[3])
		}
	}
}

func TestGeneratedCorpusReproducesTable1Counts(t *testing.T) {
	// The generated program's analyzed counts must equal the profile's
	// intent exactly (scaled for test speed).
	for _, full := range Profiles {
		p := full.Scale(0.08)
		prog, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		row, _ := core.AnalyzeProgram(p.Name, prog)
		if row.Methods != p.Methods {
			t.Errorf("%s: methods %d, want %d", p.Name, row.Methods, p.Methods)
		}
		if row.SelfContained != p.SelfContained() {
			t.Errorf("%s: self-contained %d, want %d", p.Name, row.SelfContained, p.SelfContained())
		}
		if want := p.SelfContainedBigInit + p.SelfContainedBigNonInit; row.SelfContainedBig != want {
			t.Errorf("%s: self-contained>10 %d, want %d", p.Name, row.SelfContainedBig, want)
		}
		if row.ExclInitializers != p.SelfContainedBigNonInit {
			t.Errorf("%s: excl-init %d, want %d", p.Name, row.ExclInitializers, p.SelfContainedBigNonInit)
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	p := Profiles[0].Scale(0.05)
	if Generate(p) != Generate(p) {
		t.Fatal("generation not deterministic")
	}
}

func TestCutSelectsWorkers(t *testing.T) {
	p := Profiles[0].Scale(0.05)
	prog := MustCompile(p)
	g := callgraph.Build(prog)
	chosen, _ := g.Cut("main", callgraph.CutOptions{
		AvoidRecursive:  true,
		AvoidLoopCalled: true,
		Eligible: func(q string) bool {
			return strings.HasPrefix(q, "worker")
		},
	})
	if len(chosen) != p.SplitWorkers {
		t.Fatalf("cut chose %v, want %d workers", chosen, p.SplitWorkers)
	}
	for _, c := range chosen {
		if !strings.HasPrefix(c, "worker") {
			t.Errorf("non-worker chosen: %s", c)
		}
	}
	// Decoys must never be eligible under the avoid filters.
	chosen2, _ := g.Cut("main", callgraph.CutOptions{AvoidRecursive: true, AvoidLoopCalled: true})
	for _, c := range chosen2 {
		if c == "recDecoy" || c == "loopDecoy" {
			t.Errorf("decoy selected: %s", c)
		}
	}
}

func TestGeneratedWorkersSplitAndRunEquivalent(t *testing.T) {
	for _, full := range Profiles {
		p := full.Scale(0.03)
		prog := MustCompile(p)
		var specs []core.Spec
		for i := 0; i < p.SplitWorkers; i++ {
			specs = append(specs, core.Spec{Func: workerName(i)})
		}
		res, err := core.SplitProgram(prog, specs, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: split: %v", p.Name, err)
		}
		same, want, got, err := hrt.Equivalent(res, 50_000_000)
		if err != nil {
			t.Fatalf("%s: run: %v", p.Name, err)
		}
		if !same {
			t.Errorf("%s: split changed output: %q vs %q", p.Name, want, got)
		}
		if len(res.AllILPs()) == 0 {
			t.Errorf("%s: no ILPs produced", p.Name)
		}
	}
}

func workerName(i int) string { return "worker" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

func TestKernelsCompileAndRun(t *testing.T) {
	for _, k := range Kernels() {
		prog, err := ir.Compile(k.Source(500))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		out, _, err := hrt.RunOriginal(prog, 50_000_000)
		if err != nil {
			t.Fatalf("%s: run: %v", k.Name, err)
		}
		if strings.TrimSpace(out) == "" {
			t.Errorf("%s: no output", k.Name)
		}
	}
}

func TestKernelsSplitEquivalent(t *testing.T) {
	for _, k := range Kernels() {
		prog, err := ir.Compile(k.Source(400))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		res, err := core.SplitProgram(prog, k.Split, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: split: %v", k.Name, err)
		}
		same, want, got, err := hrt.Equivalent(res, 100_000_000)
		if err != nil {
			t.Fatalf("%s: run: %v", k.Name, err)
		}
		if !same {
			t.Errorf("%s: split changed output: %q vs %q", k.Name, want, got)
		}
		out := hrt.RunSplit(res, nil, 100_000_000)
		if out.Interactions == 0 {
			t.Errorf("%s: no interactions", k.Name)
		}
	}
}

func TestKernelDeterministicAcrossSizes(t *testing.T) {
	k, err := KernelByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	p1 := k.Source(300)
	p2 := k.Source(300)
	if p1 != p2 {
		t.Fatal("kernel source not deterministic")
	}
	prog := oracle.MustCompile(p1)
	o1, _, err1 := hrt.RunOriginal(prog, 10_000_000)
	o2, _, err2 := hrt.RunOriginal(oracle.MustCompile(p2), 10_000_000)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if o1 != o2 {
		t.Fatal("kernel output not deterministic")
	}
}

func TestKernelByNameErrors(t *testing.T) {
	if _, err := KernelByName("nope"); err == nil {
		t.Error("expected error")
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("expected error")
	}
	if p, err := ProfileByName("jess"); err != nil || p.Name != "jess" {
		t.Errorf("profile lookup: %v %v", p, err)
	}
}

func TestScale(t *testing.T) {
	p := Profiles[0].Scale(0.01)
	if p.Methods <= 0 || p.Methods >= Profiles[0].Methods {
		t.Errorf("scaled methods: %d", p.Methods)
	}
	// Nonzero categories stay nonzero.
	if Profiles[0].SelfContainedSmall > 0 && p.SelfContainedSmall == 0 {
		t.Error("scaling erased a category")
	}
}
