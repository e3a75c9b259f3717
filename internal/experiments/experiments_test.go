package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"slicehide/internal/corpus"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1(Fast())
	if len(rows) != 5 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		// Shape: self-contained methods are a vanishing fraction; the
		// filtered counts shrink monotonically.
		if r.SelfContained*10 > r.Methods {
			t.Errorf("%s: too many self-contained (%d of %d)", r.Name, r.SelfContained, r.Methods)
		}
		if r.SelfContainedBig > r.SelfContained || r.ExclInitializers > r.SelfContainedBig {
			t.Errorf("%s: counts not monotone: %+v", r.Name, r)
		}
	}
	text := RenderTable1(rows)
	if !strings.Contains(text, "jfig") || !strings.Contains(text, "Table 1") {
		t.Errorf("render:\n%s", text)
	}
}

func TestTables234Shape(t *testing.T) {
	splits, err := Tables234(Fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 {
		t.Fatalf("splits: %d", len(splits))
	}
	var jfig, jess *BenchmarkSplit
	for i := range splits {
		s := &splits[i]
		if s.MethodsSliced == 0 || s.ILPs == 0 || s.SliceStatements == 0 {
			t.Errorf("%s: empty split: %+v", s.Name, s)
		}
		if s.T3.Total() != s.ILPs {
			t.Errorf("%s: table3 total %d != ILPs %d", s.Name, s.T3.Total(), s.ILPs)
		}
		// Shape: hidden predicates dominate (Table 4's key observation).
		if s.T4.PredicatesHidden == 0 {
			t.Errorf("%s: no hidden predicates", s.Name)
		}
		switch s.Name {
		case "jfig":
			jfig = s
		case "jess":
			jess = s
		}
	}
	// Shape: jfig (arithmetic-heavy) shows rational/polynomial leaks that
	// the linear-flavored benchmarks mostly lack.
	if jfig == nil || jess == nil {
		t.Fatal("benchmarks missing")
	}
	if jfig.T3.Polynomial+jfig.T3.Rational == 0 {
		t.Errorf("jfig should produce polynomial/rational ILPs: %+v", jfig.T3)
	}
	for _, render := range []string{RenderTable2(splits), RenderTable3(splits), RenderTable4(splits)} {
		if !strings.Contains(render, "jasmin") {
			t.Errorf("render missing benchmark:\n%s", render)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	cfg := Fast()
	// Overhead must be nonnegative within noise. At the tiny Fast scale
	// wall times are microseconds, so only rows long enough for scheduling
	// jitter not to dominate are judged — and a GC pause or scheduler
	// stall landing in one baseline run can still make a single row's
	// overhead spuriously negative on a loaded box, so the whole table is
	// re-measured before declaring it: a real inversion reproduces.
	negatives := func(rows []Table5Row) []string {
		var bad []string
		for _, r := range rows {
			if !r.Excluded && r.Before > 5*time.Millisecond && r.PctIncrease < -20 {
				bad = append(bad, fmt.Sprintf("%s/%s: negative overhead %f%%", r.Benchmark, r.Input, r.PctIncrease))
			}
		}
		return bad
	}
	var rows []Table5Row
	var err error
	for attempt := 0; ; attempt++ {
		rows, err = Table5(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bad := negatives(rows)
		if len(bad) == 0 {
			break
		}
		if attempt == 2 {
			for _, msg := range bad {
				t.Error(msg)
			}
			break
		}
		t.Logf("re-measuring after suspicious timing: %v", bad)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	excluded := 0
	for _, r := range rows {
		if r.Excluded {
			excluded++
			continue
		}
		if r.Interactions == 0 {
			t.Errorf("%s/%s: no interactions", r.Benchmark, r.Input)
		}
		if r.WireBytes == 0 {
			t.Errorf("%s/%s: no wire volume accounted", r.Benchmark, r.Input)
		}
		if r.After <= 0 || r.Before <= 0 {
			t.Errorf("%s/%s: missing timings", r.Benchmark, r.Input)
		}
	}
	if excluded != 1 {
		t.Errorf("expected jfig excluded, got %d exclusions", excluded)
	}
	text := RenderTable5(rows)
	if !strings.Contains(text, "interactions") {
		t.Errorf("render:\n%s", text)
	}
}

// TestTable5Counts pins Table 5's counts at Fast(): per row, the split
// run's interactions, the round trips its synchronous and pipelined runs
// block on, and its wire bytes. Unlike the timings they are exact, so any
// change to the split or the runtime that moves a round trip shows here.
func TestTable5Counts(t *testing.T) {
	want := []struct {
		bench, input                          string
		interactions, blocking, pipelined, wb int64
	}{
		{"javac", "33K", 3, 5, 3, 458},
		{"javac", "355K", 4, 6, 3, 548},
		{"jess", "dilemma (5K)", 9, 11, 3, 940},
		{"jess", "fullmab (12K)", 9, 11, 3, 940},
		{"jess", "hard (.5K)", 9, 11, 3, 940},
		{"jess", "stack (2K)", 9, 11, 3, 940},
		{"jess", "wordgame (5K)", 9, 11, 3, 940},
		{"jess", "zebra (7K)", 9, 11, 3, 940},
		{"jasmin", "small (124K)", 3, 5, 3, 445},
		{"bloat", "161smin.jar (149K)", 6, 8, 3, 691},
		{"bloat", "jess.jar (290K)", 6, 8, 3, 691},
		{"jfig", "(interactive; excluded)", 0, 0, 0, 0},
	}
	rows, err := Table5(Fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		w := want[i]
		if r.Benchmark != w.bench || r.Input != w.input || r.Interactions != w.interactions ||
			r.Blocking != w.blocking || r.PipelinedBlocking != w.pipelined || r.WireBytes != w.wb {
			t.Errorf("row %d: %s/%s interactions %d, blocking %d sync %d pipelined, %d wire bytes; want %+v",
				i, r.Benchmark, r.Input, r.Interactions, r.Blocking, r.PipelinedBlocking, r.WireBytes, w)
		}
	}
}

// TestTable5InteractionsGrowWithInput checks the paper's Table 5 trend:
// within a kernel, a larger input makes more open↔hidden interactions, and
// inputs of one size make the same number. A quarter of the paper's sizes
// is the smallest scale at which every pair of jess's inputs differs.
func TestTable5InteractionsGrowWithInput(t *testing.T) {
	cfg := Fast()
	cfg.KernelScale = 4
	for _, k := range corpus.Kernels() {
		if k.Excluded {
			continue
		}
		counts := make([]int64, len(k.Inputs))
		for i, in := range k.Inputs {
			row, err := Table5ForKernel(k, in, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", k.Name, in.Label, err)
			}
			counts[i] = row.Interactions
		}
		for i, a := range k.Inputs {
			for j, b := range k.Inputs {
				if (a.Size < b.Size) != (counts[i] < counts[j]) || (a.Size == b.Size) != (counts[i] == counts[j]) {
					t.Errorf("%s: %s makes %d interactions, %s makes %d", k.Name, a.Label, counts[i], b.Label, counts[j])
				}
			}
		}
	}
}

func TestAttackMatrix(t *testing.T) {
	cases, err := AttackMatrix(Fast(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AttackCase{}
	for _, c := range cases {
		byLabel[c.Label] = c
	}
	// The §3 claims, measured: constant/linear/polynomial leaks are
	// recovered by the known techniques; arbitrary functions and hidden
	// control flow are not.
	for _, label := range []string{"constant leak", "linear leak", "polynomial leak"} {
		if !byLabel[label].Recovered {
			t.Errorf("%s must be recovered: %+v", label, byLabel[label])
		}
	}
	for _, label := range []string{"arbitrary (mod) leak", "hidden control flow"} {
		if byLabel[label].Recovered {
			t.Errorf("%s must resist recovery: %+v", label, byLabel[label])
		}
	}
	text := RenderAttack(cases)
	if !strings.Contains(text, "recovered") {
		t.Errorf("render:\n%s", text)
	}
}

func TestAblationControlFlowHiding(t *testing.T) {
	cfg := Fast()
	base, err := SplitBenchmarkByName("javac", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoControlFlowHiding = true
	ablated, err := SplitBenchmarkByName("javac", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without control-flow hiding no ILP reports hidden flow.
	if ablated.T4.FlowHidden != 0 {
		t.Errorf("ablation still hides flow: %+v", ablated.T4)
	}
	if base.T4.FlowHidden == 0 {
		t.Errorf("baseline hides no flow: %+v", base.T4)
	}
}

// Fast returns a configuration suitable for unit tests: scaled-down
// corpora and kernels, and no injected latency (interaction counts are
// still exact; only wall-clock overhead shrinks).
func Fast() Config {
	return Config{Scale: 0.05, KernelScale: 400, RTT: 0, MaxSteps: 100_000_000}
}

// SplitBenchmarkByName runs the Tables 2–4 experiment for one benchmark.
func SplitBenchmarkByName(name string, cfg Config) (BenchmarkSplit, error) {
	p, err := corpus.ProfileByName(name)
	if err != nil {
		return BenchmarkSplit{}, err
	}
	return SplitBenchmark(p.Scale(cfg.Scale), cfg)
}
