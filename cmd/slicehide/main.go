// Command slicehide is the driver for the slicing-based software-splitting
// toolchain: it analyzes MiniJ programs for hiding opportunities, splits
// functions into open and hidden components, characterizes the security of
// the split (ILP complexities), runs split programs against a local or
// remote hidden-component server, mounts the automated-recovery attack, and
// regenerates the paper's evaluation tables.
//
// Usage:
//
//	slicehide tables  [-table 1|2|3|4|5|attack|all] [-scale f] [-kernel-scale n] [-rtt d] [-no-cfh]
//	slicehide analyze <file.mj>
//	slicehide split   -func f [-seed v] [-no-cfh] <file.mj>
//	slicehide ilp     -func f [-seed v] [-min-at-uses] <file.mj>
//	slicehide run     [-split f[:v],g[:v],...] [-rtt d] [-server addr | -cluster a1,a2,...] [-timeout d] [-retries n] [-window n] [-stats text|json] [-trace file] <file.mj>
//	slicehide loadtest [-server addr | -cluster a1,a2,...] [-sessions m] [-ops k] [-mux-conns n] [-window n] [-barrier-every n] [-split f:v] [-json] [program.mj]
//	slicehide attack  -func f [-seed v] [-calls n] [-window k] [-rng n] <file.mj>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"slicehide/internal/attack"
	"slicehide/internal/cluster"
	"slicehide/internal/complexity"
	"slicehide/internal/core"
	"slicehide/internal/experiments"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/obs"
	"slicehide/internal/report"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tables":
		err = cmdTables(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "split":
		err = cmdSplit(os.Args[2:])
	case "ilp":
		err = cmdILP(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "loadtest":
		err = cmdLoadtest(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "slicehide: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicehide:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `slicehide — hiding program slices for software security

commands:
  tables    regenerate the paper's evaluation tables on synthetic corpora
  analyze   report per-method hiding opportunities for a MiniJ program
  split     split a function into open and hidden components and print both
  ilp       report ILP arithmetic/control-flow complexities for a split
  run       execute a program (optionally split, optionally vs a remote hiddend)
  loadtest  drive M concurrent sessions × K hidden calls against a hiddend
  attack    observe a split program's traffic and attempt automated recovery
`)
}

func loadProgram(path string) (*ir.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ir.Compile(string(src))
}

func parseSpecs(s string) []core.Spec {
	if s == "" {
		return nil
	}
	var specs []core.Spec
	for _, part := range strings.Split(s, ",") {
		fn, seed, _ := strings.Cut(part, ":")
		specs = append(specs, core.Spec{Func: strings.TrimSpace(fn), Seed: strings.TrimSpace(seed)})
	}
	return specs
}

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	table := fs.String("table", "all", "which table: 1,2,3,4,5,attack,all")
	scale := fs.Float64("scale", 1.0, "corpus scale factor (1.0 = paper-size method counts)")
	kscale := fs.Int("kernel-scale", 1, "divide kernel input sizes by this factor")
	rtt := fs.Duration("rtt", 200*time.Microsecond, "simulated round-trip latency for Table 5")
	noCFH := fs.Bool("no-cfh", false, "ablation: disable control-flow hiding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Defaults()
	cfg.Scale = *scale
	cfg.KernelScale = *kscale
	cfg.RTT = *rtt
	cfg.NoControlFlowHiding = *noCFH

	want := func(t string) bool { return *table == "all" || *table == t }
	if want("1") {
		fmt.Println(experiments.RenderTable1(experiments.Table1(cfg)))
	}
	if want("2") || want("3") || want("4") {
		splits, err := experiments.Tables234(cfg)
		if err != nil {
			return err
		}
		if want("2") {
			fmt.Println(experiments.RenderTable2(splits))
		}
		if want("3") {
			fmt.Println(experiments.RenderTable3(splits))
		}
		if want("4") {
			fmt.Println(experiments.RenderTable4(splits))
		}
	}
	if want("5") {
		rows, err := experiments.Table5(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable5(rows))
	}
	if want("attack") {
		cases, err := experiments.AttackMatrix(cfg, 20030601)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderAttack(cases))
	}
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze: expected one source file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	row, infos := core.AnalyzeProgram(fs.Arg(0), prog)
	t := report.New("Per-method hiding opportunities (§2.1).",
		"method", "statements", "self-contained", "initializer")
	sort.Slice(infos, func(i, j int) bool { return infos[i].QName < infos[j].QName })
	for _, in := range infos {
		t.Row(in.QName, in.Statements, in.SelfContained, in.Initializer)
	}
	fmt.Println(t.String())
	fmt.Printf("methods=%d self-contained=%d (>%d stmts: %d; excluding initializers: %d)\n",
		row.Methods, row.SelfContained, core.SmallThreshold, row.SelfContainedBig, row.ExclInitializers)
	return nil
}

func cmdSplit(args []string) error {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	fn := fs.String("func", "", "function to split (required)")
	seed := fs.String("seed", "", "seed variable (default: auto)")
	noCFH := fs.Bool("no-cfh", false, "disable control-flow hiding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fn == "" || fs.NArg() != 1 {
		return fmt.Errorf("split: need -func and one source file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := core.SplitProgramOpts(prog, []core.Spec{{Func: *fn, Seed: *seed}},
		slicer.Policy{}, core.Options{NoControlFlowHiding: *noCFH})
	if err != nil {
		return err
	}
	sf := res.Splits[*fn]
	fmt.Printf("=== original %s ===\n%s\n", *fn, ir.FormatFunc(sf.Orig))
	fmt.Printf("=== open component Of ===\n%s\n", ir.FormatFunc(sf.Open))
	fmt.Printf("=== hidden component Hf ===\n%s\n", sf.Hidden)
	st := sf.Stats()
	fmt.Printf("seed=%s slice-statements=%d fragments=%d ILPs=%d hidden-vars=%d (fully hidden: %d)\n",
		sf.Seed, st.SliceStatements, st.Fragments, st.ILPs, st.HiddenVars, st.FullyHidden)
	return nil
}

func cmdILP(args []string) error {
	fs := flag.NewFlagSet("ilp", flag.ExitOnError)
	fn := fs.String("func", "", "function to split (required)")
	seed := fs.String("seed", "", "seed variable (default: auto)")
	minUses := fs.Bool("min-at-uses", false, "ablation: literal Fig.3 MIN aggregation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fn == "" || fs.NArg() != 1 {
		return fmt.Errorf("ilp: need -func and one source file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: *fn, Seed: *seed}}, slicer.Policy{})
	if err != nil {
		return err
	}
	sf := res.Splits[*fn]
	reports := complexity.AnalyzeOpts(sf, complexity.Options{MinAtUses: *minUses})
	t := report.New(fmt.Sprintf("ILP complexity for %s (seed %s).", *fn, sf.Seed),
		"ilp", "kind", "leaked expression", "AC <type, inputs, degree>", "CC <paths, preds, flow>")
	for _, r := range reports {
		t.Row(r.ILP.ID, r.ILP.Kind, ir.ExprString(r.ILP.HiddenExpr), r.AC.String(), r.CC.String())
	}
	fmt.Println(t.String())
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	split := fs.String("split", "", "comma-separated f[:seed] functions to split")
	rtt := fs.Duration("rtt", 0, "simulated round-trip latency")
	server := fs.String("server", "", "address of a remote hiddend (default: in-process)")
	clusterPeers := fs.String("cluster", "", "comma-separated fleet membership (every replica's address); the session rides one pooled connection per replica, homes on its rendezvous owner and follows failovers (always synchronous)")
	stats := fs.String("stats", "", `emit interaction statistics to stderr: "text" (one line) or "json" (schema-stable document)`)
	trace := fs.String("trace", "", "write redacted runtime trace events (JSON lines) to this file")
	timeout := fs.Duration("timeout", 5*time.Second, "per-attempt I/O deadline on the hiddend link")
	retries := fs.Int("retries", 8, "max retries per round trip on the hiddend link (-1 disables)")
	window := fs.Int("window", 64, "max unacknowledged in-flight hidden calls, for -server and in-process runs (a -cluster session is always blocking): 0 makes every hidden call a blocking round trip (the paper's synchronous model), N>0 sends reply-free calls one-way with up to N in flight")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: expected one source file")
	}
	statsMode, err := parseStatsMode(*stats)
	if err != nil {
		return err
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	specs := parseSpecs(*split)
	if len(specs) == 0 {
		return vm.NewMachine(prog, interp.Options{Out: os.Stdout}).Run()
	}
	res, err := core.SplitProgram(prog, specs, slicer.Policy{})
	if err != nil {
		return err
	}

	// Observability: the tracer records redacted runtime events when
	// -trace is set; the registry collects the latency histograms and
	// gauges that -stats json folds into its document.
	var tracer *obs.Tracer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return fmt.Errorf("run: create trace file: %w", err)
		}
		defer f.Close()
		tracer = obs.NewTracer(obs.TracerConfig{Level: obs.LevelDebug, Output: f})
	}
	reg := obs.NewRegistry()
	metrics := hrt.NewRuntimeMetrics(reg)

	counters := &hrt.Counters{}
	var t hrt.Transport
	serverLabel := *server
	if *clusterPeers != "" {
		// Fleet mode: the session rides the pool's one multiplexed upstream
		// per replica; each attempt re-ranks the membership, so a redirect
		// or a dead primary both converge on the replica that actually
		// serves the session. The pool's transport is reply-bearing only,
		// so a fleet session is synchronous and takes no -window.
		peers := splitPeerList(*clusterPeers)
		if len(peers) == 0 {
			return fmt.Errorf("run: -cluster needs at least one replica address")
		}
		session := rand.Uint64() | 1
		pool := cluster.NewMuxPool(cluster.MuxPoolConfig{
			Peers:    peers,
			Timeout:  *timeout,
			Policy:   hrt.RetryPolicy{Retries: *retries},
			Counters: counters,
			Tracer:   tracer,
		})
		defer pool.Close()
		t = pool.SessionTransport(session)
		serverLabel = cluster.Owner(session, peers)
	} else if *server != "" {
		mt, err := hrt.DialMux(hrt.MuxConfig{
			Addr:     *server,
			Timeout:  *timeout,
			Policy:   hrt.RetryPolicy{Retries: *retries},
			Window:   *window,
			Counters: counters,
			Tracer:   tracer,
		})
		if err != nil {
			return err
		}
		defer mt.Close()
		stream := mt.Stream(0, counters)
		reg.Gauge("hrt_inflight_window", func() int64 { return int64(stream.InFlight()) })
		t = stream
	} else {
		t = &hrt.Local{Server: hrt.NewServer(hrt.NewRegistry(res))}
	}
	if *rtt > 0 {
		t = &hrt.Latency{Inner: t, RTT: *rtt}
	}
	// Outermost wrapper: the measured latency covers the whole chain —
	// simulated RTT, retries, backoff — which is what the user waits for.
	t = &hrt.Counting{Inner: t, Counters: counters, Metrics: metrics, Tracer: tracer}
	// Addr and Counters make server-side refusals actionable: a session
	// bounce surfaces as a typed error naming the server and session, and
	// is tallied into the -stats document.
	var hidden interp.HiddenSession = &hrt.Session{T: t, Addr: serverLabel, Counters: counters}
	if *window > 0 {
		// Falls back to the synchronous session when the chain cannot do
		// one-way sends (the fleet pool's transport).
		if as := hrt.NewAsyncSession(t); as != nil {
			as.Addr = serverLabel
			as.Counters = counters
			hidden = as
		}
	}
	opts := interp.Options{
		Out:        os.Stdout,
		Hidden:     hidden,
		SplitFuncs: res.SplitSet(),
	}
	if tracer != nil {
		opts.Trace = hrt.InterpTracer{T: tracer}
	}
	in := vm.NewMachine(res.Open, opts)
	start := time.Now()
	runErr := in.Run()
	if statsMode != "" {
		doc := experiments.NewRunStats(counters, time.Since(start), runErr)
		doc.OpenSteps = in.Steps()
		doc.AddRegistry(reg)
		if statsMode == "json" {
			if err := doc.WriteJSON(os.Stderr); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(os.Stderr, doc.Text())
		}
	}
	return describeRunError(runErr)
}

// describeRunError augments a failed run's error with remediation where
// the runtime knows one — the session-evicted bounce and the fleet's
// owner redirect (which replica owns the session, and how to follow it).
func describeRunError(err error) error {
	if err == nil {
		return nil
	}
	var evicted *hrt.SessionEvictedError
	if errors.As(err, &evicted) {
		return fmt.Errorf("%w\nhint: %s", err, evicted.Hint())
	}
	var redirect *hrt.OwnerRedirectError
	if errors.As(err, &redirect) {
		return fmt.Errorf("%w\nhint: %s", err, redirect.Hint())
	}
	return err
}

// splitPeerList parses a comma-separated fleet membership list.
func splitPeerList(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// cmdLoadtest drives the concurrent load harness: M sessions × K hidden
// fragment calls against a running hiddend (-server) or a running
// replicating fleet (-cluster), reporting aggregate ops/sec and
// blocking-op latency quantiles.
func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	server := fs.String("server", "", "address of a running hiddend to target")
	clusterList := fs.String("cluster", "", "comma-separated membership of a running replicating fleet to target (every member's address)")
	sessions := fs.Int("sessions", 8, "concurrent client sessions")
	ops := fs.Int("ops", 1000, "hidden fragment calls per session")
	muxConns := fs.Int("mux-conns", 0, "shared connection count (0 = one per 256 sessions, capped at 64; -cluster uses one per replica)")
	window := fs.Int("window", 64, "per-session in-flight window: 0 drives blocking round trips, N>0 drives one-way calls with flush barriers and up to N in flight (-cluster is always blocking)")
	barrier := fs.Int("barrier-every", 16, "one-way ops between flush barriers")
	split := fs.String("split", "", `workload split spec "f:seed" (default: built-in workload; with a program file it must name one of its functions)`)
	asJSON := fs.Bool("json", false, "emit the schema-versioned LoadResult JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*server == "") == (*clusterList == "") {
		return fmt.Errorf("loadtest: give exactly one of -server and -cluster")
	}
	// The workload program is compiled and split locally to discover the
	// fragment to drive, so targeting a remote server or fleet means passing
	// the same program (and -split) it was started with.
	var source string
	switch fs.NArg() {
	case 0:
		if *split != "" {
			return fmt.Errorf("loadtest: -split needs the server's program file as an argument")
		}
	case 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		source = string(src)
	default:
		return fmt.Errorf("loadtest: unexpected arguments %v", fs.Args()[1:])
	}
	res, err := experiments.RunLoad(experiments.LoadConfig{
		Addr:         *server,
		Cluster:      splitPeerList(*clusterList),
		Sessions:     *sessions,
		Ops:          *ops,
		MuxConns:     *muxConns,
		Window:       *window,
		BarrierEvery: *barrier,
		Source:       source,
		Split:        *split,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("loadtest: %d sessions × %d ops (%s over %d conns, GOMAXPROCS=%d)\n",
		res.Sessions, res.OpsPerSession, res.Mode, res.MuxConns, res.GOMAXPROCS)
	fmt.Printf("  throughput: %.0f ops/sec (%d ops in %s)\n",
		res.OpsPerSec, res.TotalOps, time.Duration(res.ElapsedNs))
	fmt.Printf("  blocking ops: %d, p50 %s, p99 %s, p99.9 %s, max %s\n",
		res.Blocking.Count, time.Duration(res.Blocking.P50Ns),
		time.Duration(res.Blocking.P99Ns), time.Duration(res.Blocking.P999Ns),
		time.Duration(res.Blocking.MaxNs))
	return nil
}

// parseStatsMode normalizes the -stats flag. The flag used to be a
// boolean, so boolean literals stay accepted as aliases for the legacy
// text line.
func parseStatsMode(s string) (string, error) {
	switch strings.ToLower(s) {
	case "", "none", "off", "false", "0":
		return "", nil
	case "text", "true", "1":
		return "text", nil
	case "json":
		return "json", nil
	}
	return "", fmt.Errorf(`run: invalid -stats mode %q (want "text" or "json")`, s)
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	fn := fs.String("func", "", "split function to attack (required)")
	seed := fs.String("seed", "", "seed variable (default: auto)")
	calls := fs.Int("calls", 200, "number of random invocations to observe")
	window := fs.Int("window", 4, "observation window (recent sent values per sample)")
	rngSeed := fs.Int64("rng", 1, "random seed for generated inputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fn == "" || fs.NArg() != 1 {
		return fmt.Errorf("attack: need -func and one source file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: *fn, Seed: *seed}}, slicer.Policy{})
	if err != nil {
		return err
	}
	f := prog.Func(*fn)
	server := hrt.NewServer(hrt.NewRegistry(res))
	obs := attack.NewObserver(&hrt.Local{Server: server}, *window)
	in := vm.NewMachine(res.Open, interp.Options{
		Hidden:     &hrt.Session{T: obs},
		SplitFuncs: res.SplitSet(),
		MaxSteps:   1_000_000_000,
	})
	rng := rand.New(rand.NewSource(*rngSeed))
	for i := 0; i < *calls; i++ {
		argv := make([]interp.Value, len(f.Params))
		for j := range argv {
			argv[j] = interp.IntV(int64(rng.Intn(60) - 30))
		}
		if _, err := in.Call(*fn, argv); err != nil {
			return fmt.Errorf("driving %s: %w", *fn, err)
		}
	}
	results := obs.AttackAll(attack.RecoveryOptions{})
	t := report.New(fmt.Sprintf("Automated recovery against %s after %d observed calls.", *fn, *calls),
		"fragment", "samples", "outcome")
	for _, k := range obs.Fragments() {
		t.Row(k.String(), len(obs.Samples(k)), results[k].String())
	}
	fmt.Println(t.String())
	return nil
}
