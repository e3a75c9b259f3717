package slicehide

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§4) plus the measured §3 attack experiment and the ablations
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Table-shaped output is emitted via b.Log (visible with -v); numeric
// summaries are attached as custom benchmark metrics so regressions are
// visible in benchstat diffs.

import (
	"fmt"
	"testing"
	"time"

	"slicehide/internal/attack"
	"slicehide/internal/complexity"
	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/experiments"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

// benchCfg is the experiment configuration used by the table benchmarks:
// paper-scale corpora, kernels reduced 4x to keep a full -bench=. run in
// minutes, the default 200µs LAN round trip.
func benchCfg() experiments.Config {
	cfg := experiments.Defaults()
	cfg.KernelScale = 4
	return cfg
}

// ---------------------------------------------------------------------------
// Table 1 — opportunities for hiding whole methods (E1)

func BenchmarkTable1SelfContained(b *testing.B) {
	cfg := benchCfg()
	var rows []core.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(cfg)
	}
	b.Log("\n" + experiments.RenderTable1(rows))
	total, sc := 0, 0
	for _, r := range rows {
		total += r.Methods
		sc += r.SelfContained
	}
	b.ReportMetric(float64(total), "methods")
	b.ReportMetric(float64(sc), "self-contained")
}

// ---------------------------------------------------------------------------
// Tables 2, 3, 4 — split characteristics and ILP complexity (E2–E4)

func benchTables234(b *testing.B, cfg experiments.Config) []experiments.BenchmarkSplit {
	var splits []experiments.BenchmarkSplit
	var err error
	for i := 0; i < b.N; i++ {
		splits, err = experiments.Tables234(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return splits
}

func BenchmarkTable2SplitCharacteristics(b *testing.B) {
	splits := benchTables234(b, benchCfg())
	b.Log("\n" + experiments.RenderTable2(splits))
	methods, stmts, ilps := 0, 0, 0
	for _, s := range splits {
		methods += s.MethodsSliced
		stmts += s.SliceStatements
		ilps += s.ILPs
	}
	b.ReportMetric(float64(methods), "methods-sliced")
	b.ReportMetric(float64(stmts), "slice-stmts")
	b.ReportMetric(float64(ilps), "ILPs")
}

func BenchmarkTable3ArithmeticComplexity(b *testing.B) {
	splits := benchTables234(b, benchCfg())
	b.Log("\n" + experiments.RenderTable3(splits))
	var lin, arb, poly, rat int
	for _, s := range splits {
		lin += s.T3.Linear
		arb += s.T3.Arbitrary
		poly += s.T3.Polynomial
		rat += s.T3.Rational
	}
	b.ReportMetric(float64(lin), "linear")
	b.ReportMetric(float64(poly), "polynomial")
	b.ReportMetric(float64(rat), "rational")
	b.ReportMetric(float64(arb), "arbitrary")
}

func BenchmarkTable4ControlFlowComplexity(b *testing.B) {
	splits := benchTables234(b, benchCfg())
	b.Log("\n" + experiments.RenderTable4(splits))
	var pv, ph, fh int
	for _, s := range splits {
		pv += s.T4.PathsVariable
		ph += s.T4.PredicatesHidden
		fh += s.T4.FlowHidden
	}
	b.ReportMetric(float64(pv), "paths-variable")
	b.ReportMetric(float64(ph), "predicates-hidden")
	b.ReportMetric(float64(fh), "flow-hidden")
}

// ---------------------------------------------------------------------------
// Table 5 — runtime overhead (E5), one benchmark per workload

func benchTable5Kernel(b *testing.B, name string) {
	cfg := benchCfg()
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		k, err := corpus.KernelByName(name)
		if err != nil {
			b.Fatal(err)
		}
		rows = rows[:0]
		for _, in := range k.Inputs {
			row, err := kernelRow(k, in, cfg)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	b.Log("\n" + experiments.RenderTable5(rows))
	var inter int64
	var pct float64
	for _, r := range rows {
		inter += r.Interactions
		pct += r.PctIncrease
	}
	if len(rows) > 0 {
		b.ReportMetric(float64(inter), "interactions")
		b.ReportMetric(pct/float64(len(rows)), "avg-overhead-%")
	}
}

func kernelRow(k corpus.Kernel, in corpus.KernelInput, cfg experiments.Config) (experiments.Table5Row, error) {
	rows, err := experiments.Table5ForKernel(k, in, cfg)
	if err != nil {
		return experiments.Table5Row{}, err
	}
	return rows, nil
}

func BenchmarkTable5Javac(b *testing.B)  { benchTable5Kernel(b, "javac") }
func BenchmarkTable5Jess(b *testing.B)   { benchTable5Kernel(b, "jess") }
func BenchmarkTable5Jasmin(b *testing.B) { benchTable5Kernel(b, "jasmin") }
func BenchmarkTable5Bloat(b *testing.B)  { benchTable5Kernel(b, "bloat") }

// ---------------------------------------------------------------------------
// Figures 2 and 3 — the paper's worked example (F2, F3)

const figureSrc = `
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
func main() { print(f(1, 2, 10)); }
`

func BenchmarkFigure2Split(b *testing.B) {
	prog, err := Compile(figureSrc)
	if err != nil {
		b.Fatal(err)
	}
	var res *SplitResult
	for i := 0; i < b.N; i++ {
		res, err = Split(prog, []Spec{{Func: "f", Seed: "a"}})
		if err != nil {
			b.Fatal(err)
		}
	}
	sf := res.Splits["f"]
	b.ReportMetric(float64(len(sf.ILPs)), "ILPs")
	b.ReportMetric(float64(len(sf.Hidden.Frags)), "fragments")
}

func BenchmarkFigure3ComplexityAnalysis(b *testing.B) {
	prog, err := Compile(figureSrc)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Split(prog, []Spec{{Func: "f", Seed: "a"}})
	if err != nil {
		b.Fatal(err)
	}
	var reports []ComplexityReport
	for i := 0; i < b.N; i++ {
		reports = AnalyzeILPs(res.Splits["f"])
	}
	// The paper's ILP④: the fetch of sum at the return is <Polynomial, ·, 2>.
	var sumAC complexity.AC
	for _, r := range reports {
		if vr, ok := r.ILP.HiddenExpr.(*ir.VarRef); ok && vr.Var.Name == "sum" {
			sumAC = r.AC
		}
	}
	if sumAC.Type != complexity.Polynomial {
		b.Fatalf("AC(sum) = %v, want polynomial (paper ILP-4)", sumAC)
	}
	b.ReportMetric(float64(sumAC.Degree), "sum-degree")
}

// ---------------------------------------------------------------------------
// A1 — the measured automated-recovery experiment

func BenchmarkAttackRecoveryMatrix(b *testing.B) {
	cfg := benchCfg()
	var cases []experiments.AttackCase
	var err error
	for i := 0; i < b.N; i++ {
		cases, err = experiments.AttackMatrix(cfg, 20030601)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiments.RenderAttack(cases))
	recovered := 0
	for _, c := range cases {
		if c.Recovered {
			recovered++
		}
	}
	b.ReportMetric(float64(recovered), "recovered")
	b.ReportMetric(float64(len(cases)-recovered), "resisted")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md)

// BenchmarkAblationNoControlFlowHiding measures what §2.2's control-flow
// rules buy: with them disabled, no ILP reports hidden flow and fewer
// report hidden predicates.
func BenchmarkAblationNoControlFlowHiding(b *testing.B) {
	cfg := benchCfg()
	cfg.NoControlFlowHiding = true
	var ablated experiments.BenchmarkSplit
	var err error
	for i := 0; i < b.N; i++ {
		ablated, err = splitBenchmarkByName("javac", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ablated.T4.FlowHidden), "flow-hidden")
	b.ReportMetric(float64(ablated.T4.PredicatesHidden), "predicates-hidden")
}

// BenchmarkAblationMinAtUses measures the literal Fig. 3 MIN aggregation
// against the default MAX: MIN collapses most leaks to the constant class.
func BenchmarkAblationMinAtUses(b *testing.B) {
	cfg := benchCfg()
	cfg.MinAtUses = true
	var bs experiments.BenchmarkSplit
	var err error
	for i := 0; i < b.N; i++ {
		bs, err = splitBenchmarkByName("javac", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bs.T3.Constant), "constant")
	b.ReportMetric(float64(bs.T3.Linear), "linear")
}

// BenchmarkAblationRTT sweeps the round-trip latency on one workload row
// (zero / LAN / WAN), isolating communication cost in Table 5.
func BenchmarkAblationRTT(b *testing.B) {
	for _, rtt := range []time.Duration{0, 200 * time.Microsecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("rtt=%s", rtt), func(b *testing.B) {
			cfg := benchCfg()
			cfg.RTT = rtt
			cfg.KernelScale = 10
			k, err := corpus.KernelByName("javac")
			if err != nil {
				b.Fatal(err)
			}
			var row experiments.Table5Row
			for i := 0; i < b.N; i++ {
				row, err = experiments.Table5ForKernel(k, k.Inputs[0], cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.PctIncrease, "overhead-%")
		})
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the core phases

func BenchmarkMicroCompile(b *testing.B) {
	src := corpus.Kernels()[0].Source(1000)
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroSlice(b *testing.B) {
	prog, err := Compile(figureSrc)
	if err != nil {
		b.Fatal(err)
	}
	f := prog.Func("f")
	seed := f.LookupVar("a")
	for i := 0; i < b.N; i++ {
		slicer.Compute(f, seed, slicer.Policy{})
	}
}

func BenchmarkMicroInterp(b *testing.B) {
	prog, err := Compile(corpus.Kernels()[0].Source(2000))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := RunOriginal(prog, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// fragmentCallSrc is a function whose fragments are a few arithmetic
// statements, so BenchmarkFragmentCall times dispatch, not fragment work.
const fragmentCallSrc = `
func work(x: int, y: int): int {
    var k: int = x * 3 + y;
    var t: int = k + x;
    return t - y;
}
func main() { print(work(2, 1)); }
`

// BenchmarkFragmentCall is the single-session direct-dispatch loop: no
// contention, no sockets — just the cost of one hidden fragment call end
// to end through CallSession.
func BenchmarkFragmentCall(b *testing.B) {
	prog, err := Compile(fragmentCallSrc)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Split(prog, []Spec{{Func: "work", Seed: "k"}})
	if err != nil {
		b.Fatal(err)
	}
	frags := res.Splits["work"].Hidden.Frags
	fragID := -1
	for id := range frags {
		if fragID < 0 || id < fragID {
			fragID = id
		}
	}
	if fragID < 0 {
		b.Fatal("split produced no fragments")
	}
	args := make([]interp.Value, len(frags[fragID].ArgVars))
	for i := range args {
		args[i] = interp.IntV(int64(i%5 + 1))
	}
	server := hrt.NewServer(hrt.NewRegistry(res))
	inst, err := server.EnterSession(1, "work", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.CallSession(1, "work", inst, fragID, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroLinearRecovery(b *testing.B) {
	samples := make([]attack.Sample, 200)
	for i := range samples {
		x, y := float64(i%17)-8, float64((i*7)%23)-11
		samples[i] = attack.Sample{Inputs: []float64{x, y}, Output: 3*x - 2*y + 9}
	}
	samples = attack.Dedup(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := attack.TryRecover(samples, attack.RecoveryOptions{})
		if !res.Recovered {
			b.Fatal("linear recovery failed")
		}
	}
}

func BenchmarkMicroSelfContainedAnalysis(b *testing.B) {
	prog := corpus.MustCompile(corpus.Profiles[4].Scale(0.2)) // jfig-like
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.AnalyzeProgram("jfig", prog)
	}
}

// BenchmarkAblationPipelining compares the synchronous latency model
// (every hidden request blocks one RTT, the paper's deployment) against
// the pipelined transport (reply-free requests stream one-way; only
// reply-bearing requests and barriers block) on an update-heavy kernel at
// the LAN RTT. The headline metrics are the blocking counts — operations
// that paid a full round trip in each mode — and the wall-clock overhead
// of each mode over the unsplit baseline.
func BenchmarkAblationPipelining(b *testing.B) {
	cfg := benchCfg()
	k, err := corpus.KernelByName("jasmin")
	if err != nil {
		b.Fatal(err)
	}
	var row experiments.Table5Row
	for i := 0; i < b.N; i++ {
		row, err = experiments.Table5ForKernel(k, k.Inputs[0], cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if row.PipelinedBlocking > row.Blocking {
		b.Fatalf("pipelining increased blocking operations: %d vs %d",
			row.PipelinedBlocking, row.Blocking)
	}
	b.ReportMetric(float64(row.Blocking), "blocking-sync")
	b.ReportMetric(float64(row.PipelinedBlocking), "blocking-pipelined")
	b.ReportMetric(row.PctIncrease, "overhead-sync-%")
	b.ReportMetric(row.PipelinedPct, "overhead-pipelined-%")
}

// TestPipelineSmoke checks at test scale that every kernel row still
// produces byte-identical output in both transport modes (Table5 fails on
// any mismatch) and that pipelining never blocks more often than the
// synchronous transport.
func TestPipelineSmoke(t *testing.T) {
	cfg := fastConfig()
	rows, err := experiments.Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var syncTotal, pipeTotal int64
	for _, r := range rows {
		if r.Excluded {
			continue
		}
		if r.PipelinedBlocking > r.Blocking {
			t.Errorf("%s/%s: pipelined blocking %d > sync blocking %d",
				r.Benchmark, r.Input, r.PipelinedBlocking, r.Blocking)
		}
		syncTotal += r.Blocking
		pipeTotal += r.PipelinedBlocking
	}
	// Individual rows can be too small to save anything at test scale, but
	// across the kernel corpus pipelining must strictly reduce the number
	// of operations that pay a round trip.
	if pipeTotal >= syncTotal {
		t.Errorf("pipelining saved nothing overall: %d blocking vs %d sync", pipeTotal, syncTotal)
	}
	t.Logf("blocking operations: sync=%d pipelined=%d", syncTotal, pipeTotal)
}

// fastConfig is a scaled-down configuration: small corpora and kernels, no
// injected latency (interaction counts are still exact).
func fastConfig() experiments.Config {
	return experiments.Config{Scale: 0.05, KernelScale: 400, RTT: 0, MaxSteps: 100_000_000}
}

// splitBenchmarkByName runs the Tables 2–4 experiment for one benchmark.
func splitBenchmarkByName(name string, cfg experiments.Config) (experiments.BenchmarkSplit, error) {
	p, err := corpus.ProfileByName(name)
	if err != nil {
		return experiments.BenchmarkSplit{}, err
	}
	return experiments.SplitBenchmark(p.Scale(cfg.Scale), cfg)
}
