package main

import (
	"fmt"
	"runtime"
	"time"

	"slicehide"
	"slicehide/internal/callgraph"
	"slicehide/internal/cfg"
	"slicehide/internal/complexity"
	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/dataflow"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/lang/parser"
	"slicehide/internal/lang/types"
	"slicehide/internal/slicer"
)

// split_corpus: the five Table-1 corpora through the whole split-side
// pipeline, single-threaded. One pass = every corpus program through
//
//	parse → type check → IR → call-graph cut → best-seed split per chosen
//	function (split + §3 analysis per candidate seed) → program split →
//	registry build (bytecode compile)
//
// which is what a user pays to turn a program into an open component plus
// an installable hidden registry.

const maxInterpSteps = 2_000_000_000

// stageTimes accumulates the top-level stages of one pass. They partition
// the pass, so their sum should close on the pass wall.
type stageTimes struct {
	parse, types, build, cut, split, analyze, compile time.Duration
}

func (s *stageTimes) sum() time.Duration {
	return s.parse + s.types + s.build + s.cut + s.split + s.analyze + s.compile
}

// splitCounts are exact, deterministic facts about one program's split;
// they must not change from pass to pass.
type splitCounts struct {
	methods, stmts, methodsSliced, sliceStmts, ilps, instrs int
}

func (a *splitCounts) add(b splitCounts) {
	a.methods += b.methods
	a.stmts += b.stmts
	a.methodsSliced += b.methodsSliced
	a.sliceStmts += b.sliceStmts
	a.ilps += b.ilps
	a.instrs += b.instrs
}

// splitRun carries one program through the pipeline.
type splitRun struct {
	st     *stageTimes
	spans  *spanBuf // nil when this pass records no spans
	parent int32
	// considered collects the functions the cut asked about, for the
	// standalone cfg/dataflow/slicer timings.
	considered []*ir.Func
}

// stage adds the time since *t to *acc, records a leaf span, and restarts
// the clock.
func (r *splitRun) stage(name string, acc *time.Duration, t *time.Time) {
	now := time.Now()
	d := now.Sub(*t)
	*acc += d
	r.spans.leaf(name, r.parent, *t, d)
	*t = now
}

// bestSeed is the paper's seed choice (§4): among f's hideable scalars,
// the seed whose split yields the ILP of highest arithmetic complexity,
// ties to the larger slice. It returns "" when no seed yields an ILP.
func (r *splitRun) bestSeed(f *ir.Func) (string, error) {
	var policy slicehide.Policy
	var best *slicehide.SplitFunc
	var bestAC complexity.AC
	candidates := append(append([]*ir.Var(nil), f.Locals...), f.Params...)
	for _, v := range candidates {
		if !policy.HideableVar(v) {
			continue
		}
		t := time.Now()
		sf, err := core.SplitOpts(f, v, policy, slicehide.Options{})
		r.stage("core.split", &r.st.split, &t)
		if err != nil {
			return "", err
		}
		if len(sf.ILPs) == 0 {
			continue
		}
		reports := slicehide.AnalyzeILPs(sf)
		r.stage("complexity.analyze", &r.st.analyze, &t)
		ac := complexity.MaxAC(reports)
		if best == nil || ac.Type > bestAC.Type || (ac.Type == bestAC.Type && sf.Slice.Size() > best.Slice.Size()) {
			best, bestAC = sf, ac
		}
	}
	if best == nil {
		return "", nil
	}
	return best.Seed.Name, nil
}

// splitProgram runs the full pipeline on one source text.
func (r *splitRun) splitProgram(src string) (*slicehide.SplitResult, splitCounts, error) {
	var c splitCounts
	t := time.Now()
	astProg, err := parser.Parse(src)
	r.stage("lang.parse", &r.st.parse, &t)
	if err != nil {
		return nil, c, err
	}
	info, err := types.Check(astProg)
	r.stage("lang.types", &r.st.types, &t)
	if err != nil {
		return nil, c, err
	}
	prog := ir.Build(astProg, info)
	r.stage("ir.build", &r.st.build, &t)

	g := callgraph.Build(prog)
	chosen, _ := g.Cut("main", callgraph.CutOptions{
		AvoidRecursive:  true,
		AvoidLoopCalled: true,
		Eligible: func(q string) bool {
			f := prog.Func(q)
			if f == nil || q == "main" {
				return false
			}
			r.considered = append(r.considered, f)
			seed, sl := slicer.BestSeed(f, slicehide.Policy{})
			return seed != nil && sl.Size() >= 3
		},
	})
	r.stage("callgraph.cut", &r.st.cut, &t)

	var specs []slicehide.Spec
	for _, fn := range chosen {
		seed, err := r.bestSeed(prog.Func(fn))
		if err != nil {
			return nil, c, fmt.Errorf("%s: %w", fn, err)
		}
		if seed != "" {
			specs = append(specs, slicehide.Spec{Func: fn, Seed: seed})
		}
	}
	t = time.Now()
	res, err := slicehide.SplitWith(prog, specs, slicehide.Policy{}, slicehide.Options{})
	r.stage("core.split", &r.st.split, &t)
	if err != nil {
		return nil, c, err
	}
	reg := hrt.NewRegistry(res)
	r.stage("vm.compile", &r.st.compile, &t)

	c.methods = len(prog.Funcs)
	for _, f := range prog.Funcs {
		ir.WalkStmts(f.Body, func(ir.Stmt) bool { c.stmts++; return true })
	}
	c.methodsSliced = len(res.Splits)
	c.sliceStmts = res.TotalSliceStatements()
	c.ilps = len(res.AllILPs())
	for _, comp := range reg.Prog.Comps {
		for _, id := range comp.FragIDs() {
			c.instrs += len(comp.Frag(id).Code)
		}
	}
	return res, c, nil
}

// corpusSources generates the five corpus programs; the seed perturbs each
// profile's generator seed, so every -seed is a different set of programs
// with the same Table-1 statistics.
func corpusSources(seed int64, scale float64) (names, srcs []string) {
	for _, p := range corpus.Profiles {
		p = p.Scale(scale)
		p.Seed += seed * 1000
		names = append(names, p.Name)
		srcs = append(srcs, corpus.Generate(p))
	}
	return names, srcs
}

// passResult is one full pass over the corpus.
type passResult struct {
	wall     time.Duration
	perProg  []time.Duration
	stages   stageTimes
	counts   []splitCounts
	results  []*slicehide.SplitResult
	funcs    []*ir.Func
	allocMiB float64
}

func corpusPass(srcs []string, tr *tracer, parent int32, memstats bool) (passResult, error) {
	var pr passResult
	var before runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&before)
	}
	var spans *spanBuf
	passSpan := parent
	if tr != nil {
		spans = tr.buf()
		passSpan = tr.begin("pass", parent)
		defer tr.end(passSpan)
	}
	start := time.Now()
	for _, src := range srcs {
		run := &splitRun{st: &pr.stages, spans: spans, parent: passSpan}
		if tr != nil {
			run.parent = tr.begin("program", passSpan)
		}
		t := time.Now()
		res, counts, err := run.splitProgram(src)
		pr.perProg = append(pr.perProg, time.Since(t))
		if tr != nil {
			tr.end(run.parent)
		}
		if err != nil {
			return pr, err
		}
		pr.counts = append(pr.counts, counts)
		pr.results = append(pr.results, res)
		pr.funcs = append(pr.funcs, run.considered...)
	}
	pr.wall = time.Since(start)
	if memstats {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		pr.allocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	return pr, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func runSplitCorpus(rc runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()

	// Set-up: generate the inputs (three times, for a steady figure), then
	// the discarded warm-up passes.
	var builds []float64
	var names, srcs []string
	for i := 0; i < 3; i++ {
		t := time.Now()
		names, srcs = corpusSources(rc.seed, rc.size.corpusScale)
		builds = append(builds, time.Since(t).Seconds())
	}
	warmStart := time.Now()
	for i := 0; i < rc.size.warmRounds; i++ {
		if _, err := corpusPass(srcs, nil, 0, false); err != nil {
			return nil, err
		}
	}
	setup := median(builds) + time.Since(warmStart).Seconds()

	// Timed passes. In a traced run odd passes record spans, even ones do
	// not; the difference between the two medians is the tracing overhead.
	budget := rc.budget()
	if tr != nil {
		budget = budget * 7 / 10 // leave room for the standalone timings
	}
	var passes []passResult
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < rc.size.minRounds; i++ {
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		pr, err := corpusPass(srcs, t, tr.rootID(), tr != nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
	}

	// Checks: identical counts on every pass, and every split program
	// behaves like its original.
	first := passes[0].counts
	same := true
	for _, p := range passes[1:] {
		for i := range p.counts {
			same = same && p.counts[i] == first[i]
		}
	}
	out.check("split counts identical across passes", same, "counts changed between passes")
	for i, res := range passes[len(passes)-1].results {
		ok, want, got, err := hrt.Equivalent(res, maxInterpSteps)
		out.check("split output equals original: "+names[i], ok && err == nil,
			"err=%v original=%q split=%q", err, want, got)
		out.check("something was split: "+names[i], len(res.Splits) > 0, "no function of %s was split", names[i])
	}

	var total splitCounts
	for _, c := range first {
		total.add(c)
	}
	out.attempted = int64(len(passes) * len(srcs))
	out.ops["passes"] = int64(len(passes))
	out.ops["programs_per_pass"] = int64(len(srcs))
	out.ops["methods"] = int64(total.methods)
	out.ops["methods_sliced"] = int64(total.methodsSliced)

	var walls []float64
	perProg := make([][]float64, len(srcs))
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		for i, d := range p.perProg {
			perProg[i] = append(perProg[i], float64(d)/1e3)
		}
	}
	if tr == nil {
		var progMedians []float64
		for _, xs := range perProg {
			progMedians = append(progMedians, median(xs))
		}
		out.metrics["setup_s"] = setup
		out.metrics["ops_per_s"] = float64(total.methods) / median(walls)
		out.metrics["p50_us"] = geomean(progMedians)
		return out, nil
	}

	// Per-layer ledger from the span-recording passes.
	var plain, traced []float64
	stage := map[string][]float64{}
	var allocs []float64
	for i, p := range passes {
		if i%2 == 0 {
			plain = append(plain, p.wall.Seconds())
			continue
		}
		traced = append(traced, p.wall.Seconds())
		allocs = append(allocs, p.allocMiB)
		for name, d := range map[string]time.Duration{
			"split.pass_ms": p.wall, "lang.parse_ms": p.stages.parse, "lang.types_ms": p.stages.types,
			"ir.build_ms": p.stages.build, "callgraph.cut_ms": p.stages.cut, "core.split_ms": p.stages.split,
			"complexity.analyze_ms": p.stages.analyze, "vm.compile_ms": p.stages.compile,
			"sum": p.stages.sum(),
		} {
			stage[name] = append(stage[name], ms(d))
		}
	}
	for name, xs := range stage {
		if name != "sum" {
			out.metrics[name] = median(xs)
		}
	}
	out.metrics["ledger.closure_pct"] = 100 * (median(stage["sum"]) - median(stage["split.pass_ms"])) / median(stage["split.pass_ms"])
	out.metrics["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	out.metrics["split.alloc_mb"] = median(allocs)
	out.metrics["ir.stmts"] = float64(total.stmts)
	out.metrics["core.methods_sliced"] = float64(total.methodsSliced)
	out.metrics["slicer.slice_stmts"] = float64(total.sliceStmts)
	out.metrics["core.ilps"] = float64(total.ilps)
	out.metrics["vm.instrs"] = float64(total.instrs)

	// Standalone: the passes that run inside callgraph.cut and core.split,
	// each alone over the functions the cut considered.
	funcs := passes[len(passes)-1].funcs
	rung := tr.begin("standalone", tr.rootID())
	standalone := map[string][]float64{}
	left := rc.budget() - time.Since(start)
	for i, t0 := 0, time.Now(); i < 1 || time.Since(t0) < left; i++ {
		graphs := make([]*cfg.Graph, len(funcs))
		t := time.Now()
		for j, f := range funcs {
			graphs[j] = cfg.Build(f)
		}
		standalone["cfg.build_ms"] = append(standalone["cfg.build_ms"], ms(time.Since(t)))
		t = time.Now()
		for _, g := range graphs {
			cfg.Dominators(g)
		}
		standalone["cfg.dom_ms"] = append(standalone["cfg.dom_ms"], ms(time.Since(t)))
		t = time.Now()
		for _, g := range graphs {
			dataflow.Reaching(g)
		}
		standalone["dataflow.reaching_ms"] = append(standalone["dataflow.reaching_ms"], ms(time.Since(t)))
		t = time.Now()
		for _, f := range funcs {
			slicer.BestSeed(f, slicehide.Policy{})
		}
		standalone["slicer.bestseed_ms"] = append(standalone["slicer.bestseed_ms"], ms(time.Since(t)))
	}
	tr.end(rung)
	for name, xs := range standalone {
		out.metrics[name] = median(xs)
	}
	return out, nil
}
