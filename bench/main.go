// Command bench is the repository's benchmark: six named workloads, each
// reporting the same end-to-end metrics untraced and a per-layer cost
// ledger when traced. BENCHMARK.json declares it to the driver; README.md
// explains every metric.
//
//	go run ./bench                                   all workloads, end-to-end metrics
//	go run ./bench -trace 1                          per-layer ledger + out/trace-*.json
//	go run ./bench -workload serve_rpc -seed 7       one workload (the driver's form)
//	go run ./bench -runs 5 -repeat 2                 two sets, compared against the bounds
//	go run ./bench -compare a.json b.json            compare two saved result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one workload run's input.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives data directories and trace files.
	outDir string
	size   sizes
}

// budget is the length of the timed section.
func (rc runConfig) budget() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// sizes fixes the amount of work per round. Rounds are fixed-size so the
// number of operations executed is known exactly and can be checked
// against the server's own tallies; only the number of rounds follows
// -seconds.
type sizes struct {
	corpusScale float64 // corpus.Profile scale (1.0 = the paper's method counts)
	kernelScale int     // divides kernel input sizes
	warmRounds  int     // discarded passes/repetitions before timing
	serveWarm   int     // discarded serve rounds before timing
	minRounds   int     // timed rounds even when -seconds is tiny
	streamOps   int     // ops per session per round
	rpcOps      int
	durableOps  int
	fleetOps    int
	ladderBatch int // calls per ladder sample
	ladderReps  int // samples per rung
	spinIters   int // noise probe loop length
}

var fullSizes = sizes{
	corpusScale: 1.0, kernelScale: 4, warmRounds: 2, serveWarm: 4, minRounds: 5,
	streamOps: 32768, rpcOps: 4096, durableOps: 128, fleetOps: 512,
	ladderBatch: 256, ladderReps: 400, spinIters: 40_000_000,
}

// smokeSizes keeps every code path but finishes in well under a second per
// workload; bench_test.go runs it in tier-1.
var smokeSizes = sizes{
	corpusScale: 0.02, kernelScale: 400, warmRounds: 1, serveWarm: 1, minRounds: 2,
	streamOps: 64, rpcOps: 32, durableOps: 4, fleetOps: 8,
	ladderBatch: 8, ladderReps: 5, spinIters: 100_000,
}

// check is one correctness assertion, made outside the timed section.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload hands back to the harness.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	checks    []check
	// ops records exact operation counts (per-workload op counts belong in
	// every result so two runs can be seen to have done the same work).
	ops map[string]int64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, ops: map[string]int64{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return o.failed == 0
}

type workload struct {
	name string
	run  func(cfg runConfig, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"split_corpus", runSplitCorpus},
	{"kernel_run", runKernelRun},
	{"serve_stream", runServeStream},
	{"serve_rpc", runServeRPC},
	{"serve_durable", runServeDurable},
	{"serve_fleet", runServeFleet},
}

// metricValue is one reported number, as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one workload run in a result file.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []check                `json:"checks"`
	Ops       map[string]int64       `json:"ops"`
	SpinMs    [2]float64             `json:"noise_spin_ms"` // before, after
	WallS     float64                `json:"wall_s"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Env  envRecord   `json:"env"`
	Runs []runRecord `json:"runs"`
}

// driverLine is the last line of standard output in single-workload form.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload once and shapes its outcome into a record
// carrying exactly the declared metric names for the mode.
func runWorkload(w workload, cfg runConfig) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace}
	start := time.Now()
	rec.SpinMs[0] = spinMs(cfg.size.spinIters)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tr.root = tr.begin(w.name, 0)
	}
	out, err := w.run(cfg, tr)
	if err != nil {
		return rec, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.SpinMs[1] = spinMs(cfg.size.spinIters)
	specs := endToEndSpecs
	if cfg.trace {
		tr.end(tr.root)
		n, err := tr.write(cfg.outDir, w.name)
		if err != nil {
			return rec, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
		out.metrics["trace.spans"] = float64(n)
		out.metrics["noise.spin_ms"] = max(rec.SpinMs[0], rec.SpinMs[1])
		specs = perLayerSpecs
	}
	rec.Metrics = make(map[string]metricValue, len(specs))
	declared := specByName(specs)
	for name := range out.metrics {
		if _, ok := declared[name]; !ok {
			return rec, fmt.Errorf("%s: emitted undeclared metric %q", w.name, name)
		}
	}
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok && !cfg.trace {
			return rec, fmt.Errorf("%s: end-to-end metric %q missing", w.name, s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rec, fmt.Errorf("%s: metric %q is %v", w.name, s.Name, v)
		}
		rec.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	rec.Correct = out.correct()
	rec.Attempted, rec.Failed = out.attempted, out.failed
	rec.Checks, rec.Ops = out.checks, out.ops
	rec.WallS = time.Since(start).Seconds()
	return rec, nil
}

// printRecord writes the human-readable form: one line per metric by name
// with its unit, then the checks.
func printRecord(w io.Writer, rec runRecord) {
	specs := endToEndSpecs
	if rec.Trace {
		specs = perLayerSpecs
	}
	fmt.Fprintf(w, "== %s seed=%d trace=%v attempted=%d failed=%d wall=%.1fs spin=%.1f/%.1fms\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.WallS, rec.SpinMs[0], rec.SpinMs[1])
	for _, s := range specs {
		m := rec.Metrics[s.Name]
		if rec.Trace && m.Value == 0 {
			continue // layer not exercised by this workload
		}
		fmt.Fprintf(w, "%-28s %16.4f %s\n", s.Name, m.Value, m.Unit)
	}
	for _, c := range rec.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "check %-40s %s\n", c.Name, status)
	}
}

func writeResultSet(path string, set resultSet) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSet runs the selected workloads `runs` times each with consecutive
// seeds and returns the result set.
func runSet(selected []workload, cfg runConfig, runs int, env envRecord) (resultSet, error) {
	set := resultSet{Env: env}
	for _, w := range selected {
		for i := 0; i < runs; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			rec, err := runWorkload(w, c)
			if err != nil {
				return set, err
			}
			printRecord(os.Stdout, rec)
			set.Runs = append(set.Runs, rec)
			if !rec.Correct {
				return set, fmt.Errorf("%s: correctness checks failed", w.name)
			}
		}
	}
	return set, nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all six)")
	seed := flag.Int64("seed", 1, "workload seed: drives corpus generation, call arguments, session ids and run order")
	seconds := flag.Float64("seconds", runSeconds, "length of each workload's timed section")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	out := flag.String("out", "", "write the result set to this JSON file")
	runs := flag.Int("runs", 1, "runs per workload in a set, with consecutive seeds")
	repeat := flag.Int("repeat", 1, "number of sets; 2 compares the second against the first")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 || *runs < 1 || *repeat < 1 || *repeat > 2 {
		return fmt.Errorf("need -seconds > 0, -runs >= 1 and -repeat 1 or 2")
	}

	// All load comes from this one process with GOMAXPROCS = nproc; more
	// Ps than CPUs only measures the scheduler.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure an oversubscribed box",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	outDir := filepath.Join("bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir, size: fullSizes}
	env := readEnv(outDir, *seed)

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
	}

	first, err := runSet(selected, cfg, *runs, env)
	if err != nil {
		if n := len(first.Runs); *name != "" && n > 0 {
			printDriverLine(first.Runs[n-1])
		}
		return err
	}
	if *out != "" {
		if err := writeResultSet(*out, first); err != nil {
			return err
		}
	}
	if *repeat == 2 {
		cfg.seed += int64(*runs)
		second, err := runSet(selected, cfg, *runs, env)
		if err != nil {
			return err
		}
		if !compareSets(os.Stdout, first, second) {
			return fmt.Errorf("the two sets do not agree within the bounds")
		}
	}
	if *name != "" {
		printDriverLine(first.Runs[len(first.Runs)-1])
	}
	return nil
}

func printDriverLine(rec runRecord) {
	b, err := json.Marshal(driverLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}
