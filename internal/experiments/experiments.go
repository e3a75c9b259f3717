// Package experiments drives the paper's evaluation (§4): it regenerates
// every table of the paper over the synthetic benchmark corpora and the
// workload kernels, and adds the measured attack experiment that §3 argues
// qualitatively. Both the CLI (cmd/slicehide) and the benchmark harness
// (bench_test.go) call into this package.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"slicehide/internal/attack"
	"slicehide/internal/callgraph"
	"slicehide/internal/complexity"
	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/report"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

// Config controls experiment scale so tests stay fast while benchmarks run
// at full size.
type Config struct {
	// Scale multiplies corpus method counts (1.0 = the paper's sizes).
	Scale float64
	// KernelScale divides kernel input sizes (1 = the paper's sizes).
	KernelScale int
	// RTT is the simulated round-trip latency for Table 5 (the paper ran
	// over a LAN; 200µs approximates a 2003-era LAN RPC).
	RTT time.Duration
	// MaxSteps bounds interpreter execution.
	MaxSteps int64
	// NoControlFlowHiding runs the splitting ablation.
	NoControlFlowHiding bool
	// MinAtUses runs the complexity-analysis ablation.
	MinAtUses bool
}

// Defaults returns the full-scale configuration.
func Defaults() Config {
	return Config{Scale: 1.0, KernelScale: 1, RTT: 200 * time.Microsecond, MaxSteps: 2_000_000_000}
}

// ---------------------------------------------------------------------------
// Table 1 — opportunities for constructing hidden components from whole methods

// Table1 analyzes each benchmark corpus for self-contained methods.
func Table1(cfg Config) []core.Table1Row {
	var rows []core.Table1Row
	for _, p := range corpus.Profiles {
		prog := corpus.MustCompile(p.Scale(cfg.Scale))
		row, _ := core.AnalyzeProgram(p.Name, prog)
		rows = append(rows, row)
	}
	return rows
}

// RenderTable1 formats Table 1.
func RenderTable1(rows []core.Table1Row) string {
	t := report.New("Table 1. Opportunities for constructing hidden components from whole methods.",
		"benchmark", "methods", "self-contained", ">10 stmts", "excl. initializers")
	for _, r := range rows {
		t.Row(r.Name, r.Methods, r.SelfContained, r.SelfContainedBig, r.ExclInitializers)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Tables 2–4 — split characteristics and ILP complexities

// BenchmarkSplit carries the per-benchmark split and analysis results
// behind Tables 2, 3, and 4.
type BenchmarkSplit struct {
	Name            string
	MethodsSliced   int
	SliceStatements int
	ILPs            int
	Reports         []complexity.Report
	T3              complexity.Table3Row
	T4              complexity.Table4Row
}

// SplitBenchmark selects functions in the corpus via a call-graph cut,
// splits each at the seed whose ILPs have the highest maximum arithmetic
// complexity (the paper's selection rule, §4), and analyzes the result.
func SplitBenchmark(p corpus.Profile, cfg Config) (BenchmarkSplit, error) {
	prog := corpus.MustCompile(p)
	policy := slicer.Policy{}
	opts := core.Options{NoControlFlowHiding: cfg.NoControlFlowHiding}
	g := callgraph.Build(prog)
	chosen, _ := g.Cut("main", callgraph.CutOptions{
		AvoidRecursive:  true,
		AvoidLoopCalled: true,
		Eligible: func(q string) bool {
			f := prog.Func(q)
			if f == nil || q == "main" {
				return false
			}
			seed, sl := slicer.BestSeed(f, policy)
			return seed != nil && sl.Size() >= 3
		},
	})
	out := BenchmarkSplit{Name: p.Name}
	for _, fn := range chosen {
		f := prog.Func(fn)
		sf, reports, err := splitBestSeed(f, policy, opts, cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", fn, err)
		}
		if sf == nil {
			continue
		}
		out.MethodsSliced++
		out.SliceStatements += sf.Slice.Size()
		out.ILPs += len(sf.ILPs)
		out.Reports = append(out.Reports, reports...)
	}
	out.T3, out.T4 = complexity.Aggregate(p.Name, out.Reports)
	return out, nil
}

// splitBestSeed implements the paper's seed choice: among hideable scalar
// locals, pick the one whose split yields the ILP with the highest maximum
// arithmetic complexity.
func splitBestSeed(f *ir.Func, policy slicer.Policy, opts core.Options, cfg Config) (*core.SplitFunc, []complexity.Report, error) {
	var bestSF *core.SplitFunc
	var bestReports []complexity.Report
	var bestAC complexity.AC
	candidates := append([]*ir.Var(nil), f.Locals...)
	candidates = append(candidates, f.Params...)
	for _, v := range candidates {
		if !policy.HideableVar(v) {
			continue
		}
		sf, err := core.SplitOpts(f, v, policy, opts)
		if err != nil {
			return nil, nil, err
		}
		if len(sf.ILPs) == 0 {
			continue
		}
		reports := complexity.AnalyzeOpts(sf, complexity.Options{MinAtUses: cfg.MinAtUses})
		max := complexity.MaxAC(reports)
		// The paper ranks seeds by the maximum arithmetic complexity of the
		// ILPs they create; the ranking is over the class lattice
		// (Constant ≺ … ≺ Arbitrary). Ties go to the larger slice: hiding
		// more of the function at equal recovery difficulty.
		better := bestSF == nil || max.Type > bestAC.Type
		tie := bestSF != nil && max.Type == bestAC.Type
		if better || (tie && sf.Slice.Size() > bestSF.Slice.Size()) {
			bestSF, bestReports, bestAC = sf, reports, max
		}
	}
	return bestSF, bestReports, nil
}

// Tables234 runs the split experiment on every benchmark corpus.
func Tables234(cfg Config) ([]BenchmarkSplit, error) {
	var out []BenchmarkSplit
	for _, p := range corpus.Profiles {
		bs, err := SplitBenchmark(p.Scale(cfg.Scale), cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, bs)
	}
	return out, nil
}

// RenderTable2 formats Table 2.
func RenderTable2(splits []BenchmarkSplit) string {
	t := report.New("Table 2. Split characteristics.",
		"benchmark", "methods sliced", "statements in slice", "ILPs")
	for _, s := range splits {
		t.Row(s.Name, s.MethodsSliced, s.SliceStatements, s.ILPs)
	}
	return t.String()
}

// RenderTable3 formats Table 3.
func RenderTable3(splits []BenchmarkSplit) string {
	t := report.New("Table 3. Arithmetic complexity of ILPs.",
		"benchmark", "constant", "linear", "polynomial", "rational", "arbitrary", "inputs(max)", "degree(max)")
	for _, s := range splits {
		in := fmt.Sprint(s.T3.MaxInputs)
		if s.T3.InputsVarying {
			in = "varying"
		}
		t.Row(s.Name, s.T3.Constant, s.T3.Linear, s.T3.Polynomial, s.T3.Rational, s.T3.Arbitrary, in, s.T3.MaxDegree)
	}
	return t.String()
}

// RenderTable4 formats Table 4.
func RenderTable4(splits []BenchmarkSplit) string {
	t := report.New("Table 4. Control flow complexity of ILPs.",
		"benchmark", "paths=variable", "predicates=hidden", "flow=hidden")
	for _, s := range splits {
		t.Row(s.Name, s.T4.PathsVariable, s.T4.PredicatesHidden, s.T4.FlowHidden)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 5 — runtime overhead

// Table5Row is one benchmark/input measurement. Each row measures the
// synchronous transport (every request blocks one RTT, the paper's model)
// and the pipelined transport (reply-free requests go one-way; only
// reply-bearing requests and barriers block).
type Table5Row struct {
	Benchmark    string
	Input        string
	Interactions int64
	// WireBytes is the logical open↔hidden wire volume (requests plus
	// responses) of the split run.
	WireBytes   int64
	Before      time.Duration
	After       time.Duration
	PctIncrease float64
	// Blocking counts operations that paid a full RTT in the synchronous
	// run; PipelinedBlocking counts them in the pipelined run (round trips
	// plus flush barriers). Their ratio is the latency-model speedup.
	Blocking          int64
	Pipelined         time.Duration
	PipelinedPct      float64
	PipelinedBlocking int64
	Excluded          bool
}

// Table5 runs every kernel unsplit and split (over the latency transport)
// and measures the overhead. A split run's time is its measured wall plus
// the link time the latency model charged on a virtual clock.
func Table5(cfg Config) ([]Table5Row, error) {
	var rows []Table5Row
	for _, k := range corpus.Kernels() {
		if k.Excluded {
			rows = append(rows, Table5Row{Benchmark: k.Name, Input: "(interactive; excluded)", Excluded: true})
			continue
		}
		for _, in := range k.Inputs {
			row, err := Table5ForKernel(k, in, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", k.Name, in.Label, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runKernelOnce(k corpus.Kernel, label string, size int, cfg Config) (Table5Row, error) {
	prog, err := ir.Compile(k.Source(size))
	if err != nil {
		return Table5Row{}, err
	}
	res, err := core.SplitProgramOpts(prog, k.Split, slicer.Policy{},
		core.Options{NoControlFlowHiding: cfg.NoControlFlowHiding})
	if err != nil {
		return Table5Row{}, err
	}

	var wantOut string
	before, err := medianWall(func() (time.Duration, error) {
		var err error
		wantOut, _, err = hrt.RunOriginal(res.Orig, cfg.MaxSteps)
		return 0, err
	})
	if err != nil {
		return Table5Row{}, err
	}

	// The link runs on a virtual clock, as in the benchmark's kernel_run:
	// instead of sleeping, Latency adds one RTT to link for each blocking
	// operation, and a run costs its measured wall plus that modelled time.
	var link time.Duration
	wrap := func(t hrt.Transport) hrt.Transport {
		return &hrt.Latency{Inner: t, RTT: cfg.RTT, Sleep: func(d time.Duration) { link += d }}
	}

	var out hrt.RunOutcome
	after, err := medianWall(func() (time.Duration, error) {
		link = 0
		out = hrt.RunSplit(res, wrap, cfg.MaxSteps)
		return link, out.Err
	})
	if err != nil {
		return Table5Row{}, err
	}
	if out.Output != wantOut {
		return Table5Row{}, fmt.Errorf("split changed output: %q vs %q", out.Output, wantOut)
	}

	var pout hrt.RunOutcome
	pipelined, err := medianWall(func() (time.Duration, error) {
		link = 0
		pout = hrt.RunSplitOpts(res, wrap, cfg.MaxSteps, hrt.RunOptions{Pipeline: true})
		return link, pout.Err
	})
	if err != nil {
		return Table5Row{}, fmt.Errorf("pipelined run: %w", err)
	}
	if pout.Output != wantOut {
		return Table5Row{}, fmt.Errorf("pipelining changed output: %q vs %q", pout.Output, wantOut)
	}

	pct := 0.0
	ppct := 0.0
	if before > 0 {
		pct = 100 * float64(after-before) / float64(before)
		ppct = 100 * float64(pipelined-before) / float64(before)
	}
	return Table5Row{
		Benchmark:         k.Name,
		Input:             label,
		Interactions:      out.Interactions,
		WireBytes:         out.BytesSent + out.BytesRecv,
		Before:            before,
		After:             after,
		PctIncrease:       pct,
		Blocking:          out.Blocking,
		Pipelined:         pipelined,
		PipelinedPct:      ppct,
		PipelinedBlocking: pout.Blocking,
	}, nil
}

// medianWall times run five times and returns the median of its measured
// wall plus the modelled link time run reports. A kernel run is tens of
// milliseconds on the bytecode machine — short enough for one GC cycle or
// a burst of page faults to move a single measurement by half.
func medianWall(run func() (time.Duration, error)) (time.Duration, error) {
	var walls [5]time.Duration
	for i := range walls {
		start := time.Now()
		modelled, err := run()
		if err != nil {
			return 0, err
		}
		walls[i] = time.Since(start) + modelled
	}
	sort.Slice(walls[:], func(i, j int) bool { return walls[i] < walls[j] })
	return walls[len(walls)/2], nil
}

// RenderTable5 formats Table 5, extended with the pipelined transport
// ("pipelined"/"pipe %") and the latency model ("blocking sync/pipe":
// operations that paid a full RTT in each mode).
func RenderTable5(rows []Table5Row) string {
	t := report.New("Table 5. Runtime overhead caused by software splitting.",
		"benchmark", "input", "interactions", "wire bytes", "before", "after", "% increase",
		"pipelined", "pipe %", "blocking sync/pipe")
	for _, r := range rows {
		if r.Excluded {
			t.Row(r.Benchmark, r.Input, "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		t.Row(r.Benchmark, r.Input, r.Interactions, r.WireBytes,
			r.Before.Round(time.Microsecond).String(),
			r.After.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f%%", r.PctIncrease),
			r.Pipelined.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f%%", r.PipelinedPct),
			fmt.Sprintf("%d/%d", r.Blocking, r.PipelinedBlocking))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// A1 — measured automated-recovery experiment (§3)

// AttackCase is one row of the recovery matrix: a hidden function of a
// known arithmetic/control class attacked from observed traffic.
type AttackCase struct {
	Label     string
	Class     string // expected arithmetic class
	Recovered bool
	How       string
	Samples   int
}

// AttackMatrix splits a family of functions with known hidden classes,
// drives them on random inputs, and attacks every leaking fragment — the
// §3 argument, measured.
func AttackMatrix(cfg Config, seed int64) ([]AttackCase, error) {
	type probe struct {
		label, class, src, fn, seedVar string
		nargs                          int
	}
	probes := []probe{
		{"constant leak", "constant", `
func f(x: int, y: int): int {
    var a: int = 41;
    var B: int[] = new int[2];
    B[0] = a + 1;
    return B[0];
}
func main() { }`, "f", "a", 2},
		{"linear leak", "linear", `
func f(x: int, y: int): int {
    var a: int = 3 * x + 7 * y + 5;
    var B: int[] = new int[2];
    B[0] = a;
    return B[0];
}
func main() { }`, "f", "a", 2},
		{"polynomial leak", "poly", `
func f(x: int, y: int): int {
    var a: int = x * y + x * x - 4;
    var B: int[] = new int[2];
    B[0] = a;
    return B[0];
}
func main() { }`, "f", "a", 2},
		{"arbitrary (mod) leak", "arbitrary", `
func f(x: int, y: int): int {
    var a: int = (x * 13 + y) % 17;
    var B: int[] = new int[2];
    B[0] = a;
    return B[0];
}
func main() { }`, "f", "a", 2},
		{"hidden control flow", "arbitrary", `
func f(x: int, y: int): int {
    var a: int = x + y;
    if (a % 2 == 0) { a = a * 3 + y; } else { a = a * a - x; }
    var B: int[] = new int[2];
    B[0] = a;
    return B[0];
}
func main() { }`, "f", "a", 2},
	}
	rng := rand.New(rand.NewSource(seed))
	var out []AttackCase
	for _, pr := range probes {
		prog, err := ir.Compile(pr.src)
		if err != nil {
			return nil, err
		}
		res, err := core.SplitProgramOpts(prog, []core.Spec{{Func: pr.fn, Seed: pr.seedVar}},
			slicer.Policy{}, core.Options{NoControlFlowHiding: cfg.NoControlFlowHiding})
		if err != nil {
			return nil, err
		}
		server := hrt.NewServer(hrt.NewRegistry(res))
		obs := attack.NewObserver(&hrt.Local{Server: server}, 4)
		in := vm.NewMachine(res.Open, interp.Options{
			MaxSteps:   cfg.MaxSteps,
			Hidden:     &hrt.Session{T: obs},
			SplitFuncs: res.SplitSet(),
		})
		for i := 0; i < 300; i++ {
			args := make([]interp.Value, pr.nargs)
			for j := range args {
				args[j] = interp.IntV(int64(rng.Intn(60) - 30))
			}
			if _, err := in.Call(pr.fn, args); err != nil {
				return nil, err
			}
		}
		// Attack the fragment with the most samples whose outputs vary (or
		// are constant for the constant probe) — the leak the adversary
		// cares about is the one feeding open computation.
		results := obs.AttackAll(attack.RecoveryOptions{})
		best := pickLeakResult(obs, results)
		out = append(out, AttackCase{
			Label:     pr.label,
			Class:     pr.class,
			Recovered: best.Recovered,
			How:       best.Class,
			Samples:   best.SamplesUsed,
		})
	}
	return out, nil
}

// pickLeakResult selects the observed fragment carrying the leaked value:
// the one with the most recorded samples.
func pickLeakResult(obs *attack.Observer, results map[attack.FragKey]attack.RecoveryResult) attack.RecoveryResult {
	keys := obs.Fragments()
	sort.Slice(keys, func(i, j int) bool {
		return len(obs.Samples(keys[i])) > len(obs.Samples(keys[j]))
	})
	for _, k := range keys {
		return results[k]
	}
	return attack.RecoveryResult{}
}

// RenderAttack formats the recovery matrix.
func RenderAttack(cases []AttackCase) string {
	t := report.New("Automated recovery of hidden fragments (measured §3 experiment).",
		"hidden function", "expected class", "recovered", "technique", "samples")
	for _, c := range cases {
		rec := "no"
		if c.Recovered {
			rec = "yes"
		}
		how := c.How
		if how == "" {
			how = "-"
		}
		t.Row(c.Label, c.Class, rec, how, c.Samples)
	}
	return t.String()
}

// Table5ForKernel measures one kernel/input row.
func Table5ForKernel(k corpus.Kernel, in corpus.KernelInput, cfg Config) (Table5Row, error) {
	return runKernelOnce(k, in.Label, max(in.Size/cfg.KernelScale, 10), cfg)
}
