package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"slicehide"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
)

// kernel_run: the paper's Table 5. Four workload kernels, each run
// unsplit, split over a synchronous link and split over the pipelined
// link, in-process (hrt.Local) behind a modelled 200µs round trip. The
// model's sleeps are counted on a virtual clock instead of slept and added
// back to the wall afterwards, so timer jitter stays out of the number
// while every blocking operation still costs exactly one RTT.

const kernelRTT = 200 * time.Microsecond

// kernelInputs picks one Table 5 row per kernel (by label prefix).
var kernelInputs = map[string]string{
	"javac":  "355K",
	"jess":   "fullmab",
	"jasmin": "small",
	"bloat":  "jess.jar",
}

var kernelModes = []string{"orig", "sync", "pipe"}

type kernelCase struct {
	name string
	res  *slicehide.SplitResult
}

func buildKernels(scale int) ([]kernelCase, error) {
	var cases []kernelCase
	for _, k := range corpus.Kernels() {
		prefix, ok := kernelInputs[k.Name]
		if !ok {
			continue
		}
		size := 0
		for _, in := range k.Inputs {
			if strings.HasPrefix(in.Label, prefix) {
				size = max(in.Size/scale, 10)
			}
		}
		if size == 0 {
			return nil, fmt.Errorf("kernel %s has no input %q", k.Name, prefix)
		}
		prog, err := slicehide.Compile(k.Source(size))
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.Name, err)
		}
		res, err := slicehide.Split(prog, k.Split)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.Name, err)
		}
		cases = append(cases, kernelCase{name: k.Name, res: res})
	}
	if len(cases) != len(kernelInputs) {
		return nil, fmt.Errorf("found %d of %d kernels", len(cases), len(kernelInputs))
	}
	return cases, nil
}

// timingTransport is the benchmark's own boundary around everything on the
// hidden side of a split run (link model + local transport + server). Only
// the interpreter's goroutine calls it, so plain fields suffice.
type timingTransport struct {
	inner  hrt.AsyncTransport
	inside time.Duration
	spans  *spanBuf
	parent int32
}

func (t *timingTransport) observe(name string, start time.Time) {
	d := time.Since(start)
	t.inside += d
	t.spans.leaf(name, t.parent, start, d)
}

func (t *timingTransport) RoundTrip(req hrt.Request) (hrt.Response, error) {
	defer t.observe("hidden.roundtrip", time.Now())
	return t.inner.RoundTrip(req)
}

func (t *timingTransport) Send(req hrt.Request) error {
	defer t.observe("hidden.send", time.Now())
	return t.inner.Send(req)
}

func (t *timingTransport) Flush() error {
	defer t.observe("hidden.flush", time.Now())
	return t.inner.Flush()
}

// kernelSample is one execution of one kernel in one mode.
type kernelSample struct {
	wall         time.Duration // measured wall plus modelled link time
	hidden       time.Duration // inside the timing transport (traced runs)
	measured     time.Duration
	steps        int64
	interactions int64
	blocking     int64 // round trips the link model charged
	wireBytes    int64
	output       string
}

// runKernel executes one kernel in one mode. tr/parent are set on traced
// repetitions only.
func runKernel(kc kernelCase, mode string, tr *tracer, spans *spanBuf, parent int32) (kernelSample, error) {
	var s kernelSample
	id := tr.begin(kc.name+"."+mode, parent)
	defer tr.end(id)
	if mode == "orig" {
		start := time.Now()
		out, steps, err := slicehide.RunOriginal(kc.res.Orig, maxInterpSteps)
		s.measured = time.Since(start)
		s.wall, s.steps, s.output = s.measured, steps, out
		return s, err
	}
	var slept time.Duration
	var timing *timingTransport
	wrap := func(t slicehide.Transport) slicehide.Transport {
		link := &hrt.Latency{Inner: t, RTT: kernelRTT, Sleep: func(d time.Duration) { slept += d }}
		if tr == nil {
			return link
		}
		timing = &timingTransport{inner: link, spans: spans, parent: id}
		return timing
	}
	start := time.Now()
	var ro slicehide.RunOutcome
	if mode == "pipe" {
		ro = hrt.RunSplitOpts(kc.res, wrap, maxInterpSteps, hrt.RunOptions{Pipeline: true})
	} else {
		ro = slicehide.RunSplit(kc.res, wrap, maxInterpSteps)
	}
	s.measured = time.Since(start)
	s.wall = s.measured + slept
	s.steps, s.interactions, s.output = ro.Steps, ro.Interactions, ro.Output
	s.blocking = int64(slept / kernelRTT)
	s.wireBytes = ro.BytesSent + ro.BytesRecv
	if timing != nil {
		s.hidden = timing.inside
	}
	return s, ro.Err
}

type kernelKey struct{ kernel, mode string }

// kernelRep runs every (kernel, mode) pair once, in an order drawn from
// rng so no pair always runs after the same neighbour.
func kernelRep(cases []kernelCase, rng *rand.Rand, tr *tracer, spans *spanBuf) (map[kernelKey]kernelSample, error) {
	type job struct {
		kc   kernelCase
		mode string
	}
	var jobs []job
	for _, kc := range cases {
		for _, m := range kernelModes {
			jobs = append(jobs, job{kc, m})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	rep := tr.begin("rep", tr.rootID())
	defer tr.end(rep)
	out := make(map[kernelKey]kernelSample, len(jobs))
	for _, j := range jobs {
		s, err := runKernel(j.kc, j.mode, tr, spans, rep)
		if err != nil {
			return nil, fmt.Errorf("kernel %s %s: %w", j.kc.name, j.mode, err)
		}
		out[kernelKey{j.kc.name, j.mode}] = s
	}
	return out, nil
}

func runKernelRun(rc runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(rc.seed))

	var builds []float64
	var cases []kernelCase
	for i := 0; i < 3; i++ {
		t := time.Now()
		var err error
		if cases, err = buildKernels(rc.size.kernelScale); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t).Seconds())
	}
	warmStart := time.Now()
	if _, err := kernelRep(cases, rng, nil, nil); err != nil {
		return nil, err
	}
	setup := median(builds) + time.Since(warmStart).Seconds()

	// Timed repetitions; in a traced run odd ones go through the timing
	// transport and record spans.
	spans := tr.buf()
	budget := rc.budget()
	var reps []map[kernelKey]kernelSample
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < rc.size.minRounds; i++ {
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		rep, err := kernelRep(cases, rng, t, spans)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}

	// Checks: every split execution printed exactly what the original did,
	// and the exact counts never moved.
	for _, kc := range cases {
		want := reps[0][kernelKey{kc.name, "orig"}]
		sameOut, sameCounts := true, true
		for _, rep := range reps {
			for _, m := range kernelModes {
				s := rep[kernelKey{kc.name, m}]
				out.attempted++
				if s.output != want.output {
					sameOut = false
					out.failed++
				}
				first := reps[0][kernelKey{kc.name, m}]
				sameCounts = sameCounts && s.steps == first.steps && s.interactions == first.interactions && s.blocking == first.blocking
			}
		}
		out.check("split output equals original: "+kc.name, sameOut && want.output != "", "outputs differ from the unsplit run")
		out.check("exact counts repeat: "+kc.name, sameCounts, "steps/interactions/blocking changed between repetitions")
	}
	out.ops["reps"] = int64(len(reps))
	out.ops["runs_per_rep"] = int64(len(cases) * len(kernelModes))

	// med returns the median of f over the selected repetitions.
	med := func(kernel, mode string, parity int, f func(kernelSample) float64) float64 {
		var xs []float64
		for i, rep := range reps {
			if parity < 0 || i%2 == parity {
				xs = append(xs, f(rep[kernelKey{kernel, mode}]))
			}
		}
		return median(xs)
	}
	wallMs := func(s kernelSample) float64 { return ms(s.wall) }
	walls := map[string][]float64{}
	var stepRates []float64
	for _, kc := range cases {
		for _, m := range kernelModes {
			walls[m] = append(walls[m], med(kc.name, m, -1, wallMs))
		}
		steps := float64(reps[0][kernelKey{kc.name, "orig"}].steps)
		stepRates = append(stepRates, steps/(med(kc.name, "orig", -1, wallMs)/1e3))
		out.ops["steps."+kc.name] = int64(steps)
	}
	if tr == nil {
		out.metrics["setup_s"] = setup
		out.metrics["ops_per_s"] = geomean(stepRates)
		out.metrics["p50_us"] = geomean(walls["pipe"]) * 1e3
		return out, nil
	}

	var steps, origMs, interactions, blockSync, blockPipe, wire, hiddenMs, openMs float64
	var plain, traced []float64
	for _, kc := range cases {
		for _, m := range kernelModes {
			out.metrics["kernel."+kc.name+"."+m+"_ms"] = med(kc.name, m, -1, wallMs)
		}
		sync, pipe := reps[0][kernelKey{kc.name, "sync"}], reps[0][kernelKey{kc.name, "pipe"}]
		steps += float64(reps[0][kernelKey{kc.name, "orig"}].steps)
		origMs += med(kc.name, "orig", -1, wallMs)
		interactions += float64(pipe.interactions)
		blockSync += float64(sync.blocking)
		blockPipe += float64(pipe.blocking)
		wire += float64(sync.wireBytes)
		h := med(kc.name, "pipe", 1, func(s kernelSample) float64 { return ms(s.hidden) })
		hiddenMs += h
		openMs += med(kc.name, "pipe", 1, func(s kernelSample) float64 { return ms(s.measured) }) - h
		plain = append(plain, med(kc.name, "pipe", 0, wallMs))
		traced = append(traced, med(kc.name, "pipe", 1, wallMs))
	}
	out.metrics["kernel.orig_wall_ms"] = geomean(walls["orig"])
	out.metrics["kernel.sync_wall_ms"] = geomean(walls["sync"])
	out.metrics["kernel.pipe_wall_ms"] = geomean(walls["pipe"])
	out.metrics["table5.overhead_sync_pct"] = 100 * (geomean(walls["sync"]) - geomean(walls["orig"])) / geomean(walls["orig"])
	out.metrics["table5.overhead_pipe_pct"] = 100 * (geomean(walls["pipe"]) - geomean(walls["orig"])) / geomean(walls["orig"])
	out.metrics["interp.steps"] = steps
	out.metrics["interp.ns_per_step"] = origMs * 1e6 / steps
	out.metrics["interp.open_ms"] = openMs
	out.metrics["hrt.interactions"] = interactions
	out.metrics["hrt.blocking_sync"] = blockSync
	out.metrics["hrt.blocking_pipe"] = blockPipe
	out.metrics["hrt.wire_bytes"] = wire
	out.metrics["hrt.hidden_ms"] = hiddenMs
	out.metrics["trace.overhead_pct"] = 100 * (geomean(traced) - geomean(plain)) / geomean(plain)
	return out, nil
}
