package hrt_test

import (
	"fmt"
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
)

// Differential oracle for the hidden side: the bytecode VM and the
// tree-walking fragment executor (oracle.RunFragment, which the server runs
// through the test-only seam Server.UseTreeWalker installs) must be
// observably identical — same program output byte for byte, same
// interaction counters (the Table 5 measurements depend on them), and the
// same journaled effects. The tree-walker is the semantic reference and is
// linked only into tests; the VM is the only production engine.

// runSplitRef is hrt.RunSplitOpts with the server on the reference
// executor.
func runSplitRef(res *core.Result, maxSteps int64, opts hrt.RunOptions) hrt.RunOutcome {
	server := hrt.NewServer(hrt.NewRegistry(res))
	server.UseTreeWalker(res)
	return hrt.RunSplitOn(server, res, nil, maxSteps, opts)
}

// runBothModes executes one split program under both engines and fails
// the test on any observable divergence.
func runBothModes(t *testing.T, res *core.Result, maxSteps int64, label string) {
	t.Helper()
	iv := runSplitRef(res, maxSteps, hrt.RunOptions{})
	vm := hrt.RunSplitOpts(res, nil, maxSteps, hrt.RunOptions{})
	ivErr, vmErr := "", ""
	if iv.Err != nil {
		ivErr = iv.Err.Error()
	}
	if vm.Err != nil {
		vmErr = vm.Err.Error()
	}
	if ivErr != vmErr {
		t.Fatalf("%s: engines disagree on error:\ninterp: %v\nvm:     %v", label, iv.Err, vm.Err)
	}
	if iv.Output != vm.Output {
		t.Fatalf("%s: engines disagree on output:\ninterp: %q\nvm:     %q", label, iv.Output, vm.Output)
	}
	if iv.Interactions != vm.Interactions || iv.Enters != vm.Enters ||
		iv.ValuesSent != vm.ValuesSent || iv.BytesSent != vm.BytesSent ||
		iv.BytesRecv != vm.BytesRecv || iv.Steps != vm.Steps {
		t.Fatalf("%s: engines disagree on counters:\ninterp: %+v\nvm:     %+v", label, iv, vm)
	}
}

// assembleSplit builds a runnable core.Result from one split function,
// mirroring the property-test harness in package core.
func assembleSplit(prog *ir.Program, sf *core.SplitFunc) *core.Result {
	open := &ir.Program{
		Globals: prog.Globals,
		Classes: prog.Classes,
		Heap:    prog.Heap,
		Order:   prog.Order,
		Funcs:   make(map[string]*ir.Func, len(prog.Funcs)),
	}
	for qn, f := range prog.Funcs {
		open.Funcs[qn] = f
	}
	open.Funcs[sf.Orig.QName()] = sf.Open
	return &core.Result{
		Orig:   prog,
		Open:   open,
		Splits: map[string]*core.SplitFunc{sf.Orig.QName(): sf},
	}
}

// TestDifferentialVMvsInterpCorpus drives the full generated corpus — every
// hideable split of every function of each random program — through both
// engines and demands byte-identical output and identical counters.
func TestDifferentialVMvsInterpCorpus(t *testing.T) {
	policy := slicer.Policy{}
	programs := 40
	if testing.Short() {
		programs = 10
	}
	splitsChecked := 0
	for seed := int64(0); seed < int64(programs); seed++ {
		src := oracle.RandProgram(seed)
		prog, err := ir.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
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
				sf, err := core.Split(f, v, policy)
				if err != nil {
					t.Fatalf("seed %d: split %s at %s: %v", seed, qn, v, err)
				}
				if len(sf.ILPs) == 0 && len(sf.Hidden.Frags) == 0 {
					continue
				}
				res := assembleSplit(prog, sf)
				runBothModes(t, res, 50_000_000, fmt.Sprintf("seed %d: %s at %s", seed, qn, v.Name))
				splitsChecked++
			}
		}
	}
	if splitsChecked < programs {
		t.Fatalf("differential oracle exercised too few splits: %d", splitsChecked)
	}
	t.Logf("verified %d splits across %d random programs under both engines", splitsChecked, programs)
}

// TestDifferentialVMvsInterpKernels runs the five Table 5 kernels (at test
// scale) under both engines across the sync and pipelined transports.
func TestDifferentialVMvsInterpKernels(t *testing.T) {
	for _, k := range corpus.Kernels() {
		if k.Excluded {
			continue
		}
		size := k.Inputs[0].Size / 400
		if size < 10 {
			size = 10
		}
		prog, err := ir.Compile(k.Source(size))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		res, err := core.SplitProgram(prog, k.Split, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		runBothModes(t, res, 100_000_000, k.Name)
		// Pipelined transport: one-way calls, coalesced writes — the
		// engines must agree there too.
		ivp := runSplitRef(res, 100_000_000, hrt.RunOptions{Pipeline: true})
		vmp := hrt.RunSplitOpts(res, nil, 100_000_000, hrt.RunOptions{Pipeline: true})
		if ivp.Err != nil || vmp.Err != nil {
			t.Fatalf("%s pipelined: interp err %v, vm err %v", k.Name, ivp.Err, vmp.Err)
		}
		if ivp.Output != vmp.Output {
			t.Fatalf("%s pipelined: engines disagree on output", k.Name)
		}
		if ivp.Interactions != vmp.Interactions || ivp.ValuesSent != vmp.ValuesSent {
			t.Fatalf("%s pipelined: engines disagree on counters:\ninterp: %+v\nvm:     %+v", k.Name, ivp, vmp)
		}
	}
}

// durableRun is what one engine leaves behind on a journaling server.
type durableRun struct {
	out             string
	records         []string
	live, recovered string
	deltas          int
}

// runDurable executes res on a fresh journaling server on one engine, reads
// its journal back, then abandons the server and recovers the data
// directory into a fresh one.
func runDurable(t *testing.T, res *core.Result, treeWalk bool) durableRun {
	t.Helper()
	dir := t.TempDir()
	d := hrt.OpenDurable(t, res, dir, treeWalk)
	outcome := d.Run(res, 100_000_000)
	if outcome.Err != nil {
		t.Fatalf("run (tree-walker %v): %v", treeWalk, outcome.Err)
	}
	r := durableRun{out: outcome.Output, live: d.State()}
	var err error
	if r.records, err = d.JournalRecords(); err != nil {
		t.Fatal(err)
	}
	d.Crash(t)
	re := hrt.OpenDurable(t, res, dir, false)
	r.recovered = re.State()
	re.Crash(t)
	for _, rec := range r.records {
		_, deltas, _ := strings.Cut(rec, " deltas=")
		r.deltas += strings.Count(deltas, "(")
	}
	return r
}

// durableWorkload is one split program the durable-state tests journal.
type durableWorkload struct {
	name string
	res  *core.Result
}

// durableWorkloads returns the four measured kernels and one corpus
// profile at 1/20 scale, and a program with hidden globals and fields.
func durableWorkloads(t *testing.T) []durableWorkload {
	t.Helper()
	var loads []durableWorkload
	for _, k := range corpus.Kernels() {
		if k.Excluded {
			continue
		}
		prog, err := ir.Compile(k.Source(max(k.Inputs[0].Size/20, 10)))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		res, err := core.SplitProgram(prog, k.Split, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		loads = append(loads, durableWorkload{k.Name, res})
	}
	p := corpus.Profiles[0].Scale(0.05)
	var specs []core.Spec
	for i := 0; i < p.SplitWorkers; i++ {
		specs = append(specs, core.Spec{Func: fmt.Sprintf("worker%d", i)})
	}
	res, err := core.SplitProgram(corpus.MustCompile(p), specs, slicer.Policy{})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	loads = append(loads, durableWorkload{"profile " + p.Name, res})
	return append(loads, durableWorkload{"hidden globals and fields", hrt.DurableSplit(t)})
}

// TestDifferentialDurableEffects runs the four measured kernels, one corpus
// profile and a program with hidden globals and fields, at 1/20 scale, on a
// journaling server under each engine, then recovers each data directory
// into a fresh server. Both engines feed the server's one effect builder
// with the slots they wrote, so the records read back, each record's set of
// (scope, name, value) deltas and the recovered stores must be identical —
// and recovery must reproduce the state the server had when it died.
func TestDifferentialDurableEffects(t *testing.T) {
	for _, w := range durableWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			ref := runDurable(t, w.res, true)
			vm := runDurable(t, w.res, false)
			if ref.out != vm.out {
				t.Fatalf("engines disagree on output:\ninterp: %q\nvm:     %q", ref.out, vm.out)
			}
			if len(ref.records) != len(vm.records) {
				t.Fatalf("engines journaled %d and %d records", len(ref.records), len(vm.records))
			}
			for i := range ref.records {
				if ref.records[i] != vm.records[i] {
					t.Fatalf("journal record %d differs:\ninterp: %s\nvm:     %s", i, ref.records[i], vm.records[i])
				}
			}
			if ref.recovered != vm.recovered {
				t.Fatalf("recovered state differs:\ninterp:\n%s\nvm:\n%s", ref.recovered, vm.recovered)
			}
			if vm.recovered != vm.live {
				t.Fatalf("recovery did not reproduce the state at the crash:\nlive:\n%s\nrecovered:\n%s", vm.live, vm.recovered)
			}
			if vm.deltas == 0 {
				t.Fatalf("%d records carried no deltas; the effect builder is not exercised", len(vm.records))
			}
			t.Logf("%d records, %d deltas", len(vm.records), vm.deltas)
		})
	}
}

// TestRecoveryMatchesReplication journals each durable workload — and the
// hidden-globals program run as two sessions, both writing one hidden
// global — on a durable server, then lands the same records three ways:
// recovery of the data directory into a fresh server, and the replicated
// apply into a fresh durable server, once in file order and once with the
// sessions interleaved differently (each session's records still in
// order). Recovery and replication share one record applier and one
// replay-cache rule, so the three servers must agree on every store, the
// replay cache, the globals and the globals version.
func TestRecoveryMatchesReplication(t *testing.T) {
	for _, w := range durableWorkloads(t) {
		t.Run(w.name, func(t *testing.T) { recoveryMatchesReplication(t, w.res, 1) })
	}
	t.Run("two sessions, one hidden global", func(t *testing.T) {
		recoveryMatchesReplication(t, hrt.DurableSplit(t), 2)
	})
}

// recoveryMatchesReplication runs res as the given number of sessions, one
// after another, on a journaling server and lands its journal the three
// ways TestRecoveryMatchesReplication describes.
func recoveryMatchesReplication(t *testing.T, res *core.Result, sessions uint64) {
	dir := t.TempDir()
	origin := hrt.OpenDurable(t, res, dir, false)
	for s := uint64(1); s <= sessions; s++ {
		if out := origin.RunSession(res, s, 100_000_000); out.Err != nil {
			t.Fatalf("session %d: %v", s, out.Err)
		}
	}
	payloads, err := origin.JournalPayloads()
	if err != nil {
		t.Fatal(err)
	}
	origin.Crash(t)

	recovered := hrt.OpenDurable(t, res, dir, false)
	want := stateWithVersion(recovered)
	recovered.Crash(t)
	for _, order := range []struct {
		name     string
		payloads [][]byte
	}{
		{"file order", payloads},
		{"sessions interleaved", interleaveSessions(payloads)},
	} {
		replica := hrt.OpenDurable(t, res, t.TempDir(), false)
		for _, p := range order.payloads {
			if err := replica.ApplyReplicated(p); err != nil {
				t.Fatalf("%s: %v", order.name, err)
			}
		}
		got := stateWithVersion(replica)
		replica.Crash(t)
		if got != want {
			t.Fatalf("replicated in %s, state differs from recovery:\nrecovered:\n%s\nreplicated:\n%s", order.name, want, got)
		}
	}
	t.Logf("%d records agree", len(payloads))
}

// stateWithVersion is State plus the globals version.
func stateWithVersion(d *hrt.DurableServer) string {
	return fmt.Sprintf("%s\nglobals-version %d", d.State(), d.GlobalsVersion())
}

// interleaveSessions reorders journal payloads round-robin across
// sessions, newest-started session first, keeping each session's own
// records in order.
func interleaveSessions(payloads [][]byte) [][]byte {
	var order []uint64
	bySession := map[uint64][][]byte{}
	for _, p := range payloads {
		s, _, _ := hrt.RecordStamp(p)
		if bySession[s] == nil {
			order = append([]uint64{s}, order...)
		}
		bySession[s] = append(bySession[s], p)
	}
	var out [][]byte
	for len(out) < len(payloads) {
		for _, s := range order {
			if q := bySession[s]; len(q) > 0 {
				out = append(out, q[0])
				bySession[s] = q[1:]
			}
		}
	}
	return out
}

// FuzzVMvsInterp feeds random (program seed, function, variable) triples
// through both engines. The fuzzer mutates its way through the corpus
// generator's seed space; any divergence — output, error text, or
// counters — is a crash.
func FuzzVMvsInterp(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(2))
	f.Add(int64(42), uint8(3), uint8(1))
	policy := slicer.Policy{}
	f.Fuzz(func(t *testing.T, seed int64, fnPick, varPick uint8) {
		prog, err := ir.Compile(oracle.RandProgram(seed))
		if err != nil {
			t.Skip()
		}
		var fns []string
		for _, qn := range prog.Order {
			if qn != "main" {
				fns = append(fns, qn)
			}
		}
		if len(fns) == 0 {
			t.Skip()
		}
		fn := prog.Funcs[fns[int(fnPick)%len(fns)]]
		candidates := append([]*ir.Var(nil), fn.Locals...)
		candidates = append(candidates, fn.Params...)
		var hideable []*ir.Var
		for _, v := range candidates {
			if policy.HideableVar(v) {
				hideable = append(hideable, v)
			}
		}
		if len(hideable) == 0 {
			t.Skip()
		}
		v := hideable[int(varPick)%len(hideable)]
		sf, err := core.Split(fn, v, policy)
		if err != nil {
			t.Skip()
		}
		if len(sf.ILPs) == 0 && len(sf.Hidden.Frags) == 0 {
			t.Skip()
		}
		runBothModes(t, assembleSplit(prog, sf), 20_000_000, "fuzz")
	})
}
