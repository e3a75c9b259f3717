package hrt_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

// Differential oracle for the open side: vm.Machine, the production
// engine, against oracle.Interp, the tree-walking reference. Everything a
// run exposes must be identical — output bytes, error text, Steps(), and
// the exact sequence of hidden-session operations and tracer hooks with
// their arguments and results.

// engine is what both executors offer.
type engine interface {
	Run() error
	Call(qn string, args []interp.Value) (interp.Value, error)
	CallMethod(qn string, recv *interp.ObjectVal, args []interp.Value) (interp.Value, error)
	Steps() int64
}

func newInterp(p *ir.Program, o interp.Options) engine  { return oracle.New(p, o) }
func newMachine(p *ir.Program, o interp.Options) engine { return vm.NewMachine(p, o) }

// recorder logs every hidden-session operation and tracer hook in front of
// the real session, in order, with arguments and results.
type recorder struct {
	inner interp.HiddenSession
	log   []string
	// failCall, when > 0, makes that fragment call (counting reply-bearing
	// and one-way calls together) fail: at once when synchronous, at the
	// next barrier when one-way.
	failCall, calls int
	deferred        error
}

func (r *recorder) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func valuesString(vs []interp.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.Kind.String() + ":" + v.String()
	}
	return strings.Join(parts, ",")
}

func (r *recorder) injected() error {
	if r.calls++; r.calls == r.failCall {
		return errors.New("injected hidden failure")
	}
	return nil
}

func (r *recorder) Enter(fn string, obj int64) (int64, error) {
	inst, err := r.inner.Enter(fn, obj)
	r.logf("enter %s obj=%d -> %d %v", fn, obj, inst, err)
	return inst, err
}

func (r *recorder) Exit(fn string, inst int64) error {
	err := r.inner.Exit(fn, inst)
	r.logf("exit %s/%d -> %v", fn, inst, err)
	return err
}

func (r *recorder) Call(fn string, inst int64, frag int, args []interp.Value) (interp.Value, error) {
	if err := r.injected(); err != nil {
		r.logf("call %s/%d#%d(%s) -> injected", fn, inst, frag, valuesString(args))
		return interp.NullV(), err
	}
	v, err := r.inner.Call(fn, inst, frag, args)
	r.logf("call %s/%d#%d(%s) -> %s:%s %v", fn, inst, frag, valuesString(args), v.Kind, v, err)
	return v, err
}

func (r *recorder) FragEnter(fn string, inst int64) { r.logf("trace enter %s/%d", fn, inst) }
func (r *recorder) FragExit(fn string, inst int64)  { r.logf("trace exit %s/%d", fn, inst) }
func (r *recorder) HiddenCall(fn string, inst int64, frag int, oneWay bool) {
	r.logf("trace call %s/%d#%d oneway=%v", fn, inst, frag, oneWay)
}

// asyncRecorder adds the pipelined contract.
type asyncRecorder struct {
	*recorder
	async interp.AsyncHiddenSession
}

func (r asyncRecorder) EnterAsync(fn string, obj int64) (int64, error) {
	inst, err := r.async.EnterAsync(fn, obj)
	r.logf("enter-async %s obj=%d -> %d %v", fn, obj, inst, err)
	return inst, err
}

func (r asyncRecorder) ExitAsync(fn string, inst int64) error {
	err := r.async.ExitAsync(fn, inst)
	r.logf("exit-async %s/%d -> %v", fn, inst, err)
	return err
}

func (r asyncRecorder) CallOneWay(fn string, inst int64, frag int, args []interp.Value) error {
	if err := r.injected(); err != nil {
		r.logf("oneway %s/%d#%d(%s) -> deferred", fn, inst, frag, valuesString(args))
		r.deferred = err
		return nil
	}
	err := r.async.CallOneWay(fn, inst, frag, args)
	r.logf("oneway %s/%d#%d(%s) -> %v", fn, inst, frag, valuesString(args), err)
	return err
}

func (r asyncRecorder) Barrier() error {
	err := r.async.Barrier()
	if err == nil {
		err, r.deferred = r.deferred, nil
	}
	r.logf("barrier -> %v", err)
	return err
}

// runResult is everything one execution exposes.
type runResult struct {
	out, err string
	steps    int64
	log      []string
}

type runConfig struct {
	maxSteps  int64
	pipelined bool
	failCall  int
	// drive replaces Run (directed cases that call functions directly).
	drive func(e engine) error
}

// execute runs prog — res.Open against a fresh hidden server when res is
// set — on one engine.
func execute(newEngine func(*ir.Program, interp.Options) engine, prog *ir.Program, res *core.Result, cfg runConfig) runResult {
	var out strings.Builder
	opts := interp.Options{Out: &out, MaxSteps: cfg.maxSteps}
	var rec *recorder
	if res != nil {
		prog = res.Open
		t := &hrt.Local{Server: hrt.NewServer(hrt.NewRegistry(res))}
		rec = &recorder{inner: &hrt.Session{T: t}, failCall: cfg.failCall}
		opts.Hidden, opts.Trace, opts.SplitFuncs = rec, rec, res.SplitSet()
		if cfg.pipelined {
			as := hrt.NewAsyncSession(t)
			rec.inner = as
			opts.Hidden = asyncRecorder{recorder: rec, async: as}
		}
	}
	e := newEngine(prog, opts)
	drive := cfg.drive
	if drive == nil {
		drive = engine.Run
	}
	r := runResult{}
	if err := drive(e); err != nil {
		r.err = err.Error()
	}
	r.out, r.steps = out.String(), e.Steps()
	if rec != nil {
		r.log = rec.log
	}
	return r
}

// compareEngines executes one configuration on both engines and fails on
// the first difference. It returns the reference result.
func compareEngines(t testing.TB, label string, prog *ir.Program, res *core.Result, cfg runConfig) runResult {
	t.Helper()
	want := execute(newInterp, prog, res, cfg)
	got := execute(newMachine, prog, res, cfg)
	if got.err != want.err {
		t.Fatalf("%s: error differs:\ninterp:  %q\nmachine: %q", label, want.err, got.err)
	}
	if got.out != want.out {
		t.Fatalf("%s: output differs:\ninterp:  %q\nmachine: %q", label, want.out, got.out)
	}
	if got.steps != want.steps {
		t.Fatalf("%s: Steps() differs: interp %d, machine %d (error %q)", label, want.steps, got.steps, want.err)
	}
	for i := 0; i < len(want.log) || i < len(got.log); i++ {
		var w, g string
		if i < len(want.log) {
			w = want.log[i]
		}
		if i < len(got.log) {
			g = got.log[i]
		}
		if w != g {
			t.Fatalf("%s: hidden-session event %d differs:\ninterp:  %s\nmachine: %s", label, i, w, g)
		}
	}
	return want
}

// compareAllModes runs a program unsplit and, when res is set, split over
// the synchronous and the pipelined session.
func compareAllModes(t testing.TB, label string, res *core.Result, prog *ir.Program, maxSteps int64) {
	t.Helper()
	compareEngines(t, label+" unsplit", prog, nil, runConfig{maxSteps: maxSteps})
	if res == nil {
		return
	}
	compareEngines(t, label+" split-sync", nil, res, runConfig{maxSteps: maxSteps})
	compareEngines(t, label+" split-pipelined", nil, res, runConfig{maxSteps: maxSteps, pipelined: true})
}

func TestDifferentialMachineVsInterpKernels(t *testing.T) {
	for _, k := range corpus.Kernels() {
		size := max(k.Inputs[0].Size/400, 10)
		prog, err := ir.Compile(k.Source(size))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		res, err := core.SplitProgram(prog, k.Split, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		compareAllModes(t, k.Name, res, prog, 100_000_000)
		// A limit inside the run: both engines must stop at the same
		// statement, with the same output prefix and hidden traffic.
		_, total, err := hrt.RunOriginal(prog, 0)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		compareAllModes(t, k.Name+" limited", res, prog, total/2)
	}
}

// javacProgramHash is Program.Hash of the javac kernel's registry at a
// hundredth of its first input: the machine's code generation must leave
// fragment bytecode, and so every journal and snapshot, as it is. It moved
// once since the machine gained opcodes of its own, when every split began
// to batch and javac's two calls after its loop became one fragment.
const javacProgramHash = 0x40b3320fb64159fe

// TestFragmentsHoldNoMachineOpcode compiles the registries of the Table 5
// kernels and the corpus profiles: no fragment may hold an opcode only a
// Machine runs, and the javac registry's hash is the pinned one.
func TestFragmentsHoldNoMachineOpcode(t *testing.T) {
	results := map[string]*core.Result{}
	for _, k := range corpus.Kernels() {
		res, err := core.SplitProgram(ir.MustCompile(k.Source(max(k.Inputs[0].Size/100, 10))), k.Split, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		results["kernel "+k.Name] = res
	}
	for _, full := range corpus.Profiles {
		p := full.Scale(0.01)
		var specs []core.Spec
		for i := 0; i < p.SplitWorkers; i++ {
			specs = append(specs, core.Spec{Func: fmt.Sprintf("worker%d", i)})
		}
		res, err := core.SplitProgram(corpus.MustCompile(p), specs, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		results["corpus "+p.Name] = res
	}
	for name, res := range results {
		prog := hrt.NewRegistry(res).Prog
		frags := 0
		for cname, c := range prog.Comps {
			for _, id := range c.FragIDs() {
				frags++
				for pc, in := range c.Frag(id).Code {
					if in.Op >= vm.OpIndex {
						t.Errorf("%s: %s fragment %d holds machine opcode %d at pc %d", name, cname, id, in.Op, pc)
					}
				}
			}
		}
		if frags == 0 {
			t.Errorf("%s: the registry holds no fragment", name)
		}
		if name == "kernel javac" && prog.Hash != javacProgramHash {
			t.Errorf("javac registry hash %#x, want %#x", prog.Hash, uint64(javacProgramHash))
		}
	}
}

func TestDifferentialMachineVsInterpCorpus(t *testing.T) {
	scale := 0.03
	if testing.Short() {
		scale = 0.01
	}
	for _, full := range corpus.Profiles {
		p := full.Scale(scale)
		prog := corpus.MustCompile(p)
		var specs []core.Spec
		for i := 0; i < p.SplitWorkers; i++ {
			specs = append(specs, core.Spec{Func: fmt.Sprintf("worker%d", i)})
		}
		res, err := core.SplitProgram(prog, specs, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: split: %v", p.Name, err)
		}
		compareAllModes(t, p.Name, res, prog, 50_000_000)
	}
}

// compareRandProgram drives one generated program through both engines,
// unsplit and with one function split, at an unlimited and a tight budget.
func compareRandProgram(t testing.TB, seed int64, fnPick, varPick uint8) {
	compareProgram(t, fmt.Sprintf("seed %d", seed), oracle.RandProgram(seed), fnPick, varPick)
}

// compareProgram is compareRandProgram for the program src.
func compareProgram(t testing.TB, label, src string, fnPick, varPick uint8) {
	prog, err := ir.Compile(src)
	if err != nil {
		t.Skip()
	}
	ref := compareEngines(t, label, prog, nil, runConfig{maxSteps: 20_000_000})
	compareEngines(t, label+" limited", prog, nil, runConfig{maxSteps: ref.steps * 2 / 3})

	var fns []string
	for _, qn := range prog.Order {
		if qn != "main" {
			fns = append(fns, qn)
		}
	}
	if len(fns) == 0 {
		return
	}
	policy := slicer.Policy{}
	fn := prog.Funcs[fns[int(fnPick)%len(fns)]]
	var hideable []*ir.Var
	for _, v := range append(append([]*ir.Var(nil), fn.Locals...), fn.Params...) {
		if policy.HideableVar(v) {
			hideable = append(hideable, v)
		}
	}
	if len(hideable) == 0 {
		return
	}
	v := hideable[int(varPick)%len(hideable)]
	sf, err := core.Split(fn, v, policy)
	if err != nil || len(sf.ILPs) == 0 && len(sf.Hidden.Frags) == 0 {
		return
	}
	res := assembleSplit(prog, sf)
	label = fmt.Sprintf("%s: %s at %s", label, fn.QName(), v.Name)
	for _, pipelined := range []bool{false, true} {
		ref := compareEngines(t, label, nil, res, runConfig{maxSteps: 20_000_000, pipelined: pipelined})
		compareEngines(t, label+" limited", nil, res, runConfig{maxSteps: ref.steps * 2 / 3, pipelined: pipelined})
	}
}

func TestDifferentialMachineVsInterpRandom(t *testing.T) {
	programs := 40
	if testing.Short() {
		programs = 10
	}
	for seed := int64(0); seed < int64(programs); seed++ {
		compareRandProgram(t, seed, uint8(seed), uint8(seed>>3))
	}
}

// FuzzMachineVsInterp walks the corpus generator's seed space, or with a
// source runs that program instead; any divergence between the engines is
// a crash. The directed cases' sources are seeds.
func FuzzMachineVsInterp(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0), "")
	f.Add(int64(7), uint8(1), uint8(2), "")
	f.Add(int64(42), uint8(3), uint8(1), "")
	for i, tc := range directedCases {
		if tc.mutate == nil {
			f.Add(int64(0), uint8(i), uint8(i>>2), tc.src)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, fnPick, varPick uint8, src string) {
		if src == "" {
			compareRandProgram(t, seed, fnPick, varPick)
			return
		}
		compareProgram(t, "source", src, fnPick, varPick)
	})
}

// directedCases cover what the kernels and the generators do not reach.
// FuzzMachineVsInterp starts from the sources of those without mutate.
var directedCases = []struct {
	name, src string
	// sweep runs the program at every step budget from 1 to its full
	// step count, so the limit lands on every statement once.
	sweep bool
	split []core.Spec
	// mutate edits the compiled IR, for programs the type checker
	// would refuse.
	mutate func(t *testing.T, p *ir.Program)
}{
	{name: "limit between prints in a loop", sweep: true, src: `
var g: int = 3;
func bump(x: int): int { g = g + x; return g; }
func main() {
    var a: int[] = new int[4];
    for (var i: int = 0; i < 4; i++) {
        print("before", i);
        var x: int = i * 2;
        var y: int = x + 1;
        a[i] = y;
        print("after", a[i], bump(y));
    }
    print(a);
}`},
	{name: "limit inside an unbroken run with a failing statement", sweep: true, src: `
func main() {
    var a: int = 1;
    var b: int = 2;
    var z: int = 0;
    var c: int = a + b;
    var d: int = c / z;
    var e: int = d + 1;
    print(e);
}`},
	{name: "recursion to the depth limit", src: `
func down(n: int): int {
    if (n == 0) { return 0; }
    return 1 + down(n - 1);
}
func main() {
    print(down(9999));
    print(down(10000));
    print("unreachable");
}`},
	{name: "continue in a for with a post section", sweep: true, src: `
func main() {
    var s: int = 0;
    for (var i: int = 0; i < 6; i++) {
        if (i % 2 == 0) { continue; }
        for (var j: int = 0; j < 3; j++) {
            if (j == 1) { continue; }
            if (i == 5) { break; }
            s = s + i * j;
        }
    }
    print(s);
}`},
	{name: "short circuit guards a division by zero", src: `
func main() {
    var z: int = 0;
    print(z != 0 && 10 / z > 1);
    print(z == 0 || 10 / z > 1);
    print(z == 0 && 10 / z > 1);
    print("unreachable");
}`},
	{name: "float NaN and infinity comparisons", src: `
func main() {
    var zero: float = 0.0;
    var nan: float = zero / zero;
    var inf: float = 1.0 / zero;
    print(nan < 1.0, nan <= 1.0, nan > 1.0, nan >= 1.0, nan == nan, nan != nan);
    print(inf > 1.0, -inf < 1.0, inf == inf, nan, inf, -inf);
    print(int(2.9), int(-2.9), float(3) / 2.0, 7 / 2, -7 / 2, 7 % 3, -7 % 3);
}`},
	{name: "string concatenation, comparison and len", src: `
func greet(name: string): string { return "hello, " + name; }
func main() {
    var s: string = greet("world");
    print(s, len(s), len(""), s == "hello, world", s < "hello", s >= "hello");
    var a: string[] = new string[2];
    print(a, len(a), a[0] + "x");
    var e: string;
    print(len(e));
}`},
	{name: "null receiver after arguments with side effects", src: `
class Box {
    field v: int;
    method put(x: int): int { v = x; return v; }
}
var trace: int = 0;
func noisy(x: int): int { trace = trace + x; print("evaluated", x); return x; }
func main() {
    var b: Box = new Box();
    print(b.put(noisy(1)), b.v, b);
    var n: Box = null;
    print(n.put(noisy(2)));
    print("unreachable");
}`},
	{name: "global read before a call that assigns it", src: `
var g: int = 1;
func bump(): int { g = g + 10; return g; }
func main() {
    print(g + bump(), g);
    var a: int[] = new int[3];
    a[g % 3] = g + bump();
    print(a, g);
    if (g < bump()) { print("lt", g); }
}`},
	{name: "print renders each argument before the next is evaluated", src: `
func poke(a: int[]): int { a[0] = a[0] + 1; return a[0]; }
func main() {
    var a: int[] = new int[2];
    print(a, poke(a), a, poke(a));
}`},
	{name: "objects, fields, arrays and their runtime errors", sweep: true, src: `
class P {
    field x: int; field y: float; field name: string; field next: P;
    method sum(): float { return float(x) + y; }
    method link(o: P): P { next = o; return next; }
}
func main() {
    var p: P = new P();
    p.x = 3; p.y = 0.5; p.name = "p";
    var q: P = new P();
    print(q.link(p) == p, new P().link(q).next == p);
    print(p, q, q.next.name, q.next.sum(), q.name == "", q.next.next == null);
    var a: int[] = new int[3];
    a[2] = 7;
    print(a[2] > 6 ? "big" : "small", len(a));
    print(a[3]);
}`},
	{name: "remaining runtime errors", src: `
func main() {
    var a: int[] = new int[0 - 1];
}`},
	{name: "read from null array", src: `
func main() {
    var a: int[] = null;
    print(a[0]);
}`},
	{name: "store into null array", src: `
func main() {
    var a: int[] = null;
    a[0] = 1;
}`},
	{name: "read field of null object", src: `
class C { field v: int; }
func main() {
    var c: C = null;
    print(c.v);
}`},
	{name: "store into null object", src: `
class C { field v: int; }
func main() {
    var c: C = null;
    c.v = 1;
}`},
	{name: "function falling off its end yields null", src: `
func nothing(x: int): int { if (x > 0) { return x; } }
func main() {
    print(nothing(1), nothing(0));
    var y: int = nothing(0) + 1;
    print(y);
}`},
	// The step-limit sweeps put the limit at the end of every loop
	// iteration and one step either side of it, where a loop's
	// back-edge charges the iteration and the statements before it.
	{name: "limit around while-loop iterations with output and hidden traffic", sweep: true, src: `
func f(n: int): int {
    var a: int = n * 2;
    var s: int = 0;
    var i: int = 0;
    while (i < a) { s = s + i; print("it", i, s); i = i + 1; }
    while (i > 0) { s = s - 1; i = i - 1; }
    return s;
}
func main() { print(f(2)); print(f(3)); }`,
		split: []core.Spec{{Func: "f", Seed: "a"}}},
	{name: "limit around for-loop iterations whose body continues into the post block", sweep: true, src: `
func main() {
    var s: int = 0;
    for (var i: int = 0; i < 6; i++) {
        s = s + i;
        if (i % 2 == 0) { continue; }
        s = s * 2;
        print("odd", i, s);
    }
    for (var j: int = 0; j < 3; j++) { s = s + j; }
    print(s);
}`},
	{name: "limit around for-loop iterations whose post block continues", sweep: true, src: `
func main() {
    var s: int = 0;
    var x: int = 0;
    for (var i: int = 0; i < 4; i++) {
        s = s + i;
        print("at", i, x);
        x = x + 1;
        if (x % 3 == 0) { continue; }
    }
    print(s, x);
}`, mutate: func(t *testing.T, p *ir.Program) {
		// MiniJ's post clause is one assignment: move the body's last
		// two statements in front of it, so the continue is the post
		// block's and skips the i++ after it.
		loop := findStmt[*ir.WhileStmt](t, p.Funcs["main"].Body, 0)
		n := len(loop.Body)
		loop.Post = append(append([]ir.Stmt(nil), loop.Body[n-2:]...), loop.Post...)
		loop.Body = loop.Body[:n-2]
	}},
	{name: "ordered comparisons of ints, floats and strings", src: `
func main() {
    var i: int = -3;
    var j: int = 7;
    print(i < j, i <= j, i > j, i >= j, j < i, j <= i, j > i, j >= i, i < i, i <= i, i > i, i >= i);
    var x: float = 2.5;
    var y: float = -0.5;
    print(x < y, x <= y, x > y, x >= y, y < x, x <= x, x < 3.0, x >= 3.0);
    var s: string = "abc";
    var u: string = "abd";
    print(s < u, s <= u, s > u, s >= u, u < s, s <= s, "" < s, s > "ab");
    var n: int = 0;
    while (n <= 4) { n = n + 1; }
    while (n >= 2) { n = n - 2; }
    if (x > y) { print("x > y"); }
    if (y >= x) { print("unreachable"); } else { print("y < x"); }
    if (s > u) { print("unreachable"); } else { print("s <= u"); }
    if (u >= s) { print("u >= s"); }
    print(n);
}`},
	{name: "ordered comparison of a bool value", src: `
func main() {
    var b: int = 1;
    var c: int = 0;
    print("before");
    print(b < c);
}`, mutate: func(t *testing.T, p *ir.Program) {
		findStmt[*ir.AssignStmt](t, p.Funcs["main"].Body, 0).Rhs = &ir.Const{Kind: ir.ConstBool, B: true}
	}},
	{name: "ordered compare-and-branch of a bool", src: `
func main() {
    var b: int = 1;
    print("before");
    if (b >= 0) { print("unreachable"); }
}`, mutate: func(t *testing.T, p *ir.Program) {
		findStmt[*ir.AssignStmt](t, p.Funcs["main"].Body, 0).Rhs = &ir.Const{Kind: ir.ConstBool}
	}},
	{name: "int arrays: len, print, identity and a read before any write", src: `
func main() {
    var a: int[] = new int[4];
    var b: int[] = a;
    var c: int[] = new int[4];
    print(len(a), a, a[2] + 1);
    a[1] = -9;
    a[3] = 9223372036854775807;
    print(a, b, len(new int[0]), new int[0]);
    print(a == b, a == c, a != c, a == null, c == c);
}`},
	{name: "int array read out of range", src: `
func main() {
    var a: int[] = new int[3];
    print(a[2]);
    print(a[3]);
}`},
	{name: "int array write out of range", src: `
func main() {
    var a: int[] = new int[3];
    a[0] = 1;
    a[0 - 1] = 2;
}`},
	{name: "int array of negative size", src: `
func main() {
    print("before");
    var a: int[] = new int[-1];
}`},
	{name: "int array written by a callee", src: `
func squares(a: int[], n: int) {
    for (var i: int = 0; i < n; i++) { a[i] = i * i; }
}
func total(a: int[]): int {
    var s: int = 0;
    for (var i: int = 0; i < len(a); i++) { s = s + a[i]; }
    return s;
}
func main() {
    var a: int[] = new int[5];
    squares(a, 4);
    print(a, total(a));
}`},
	{name: "int[][], float[], bool[] and string[] keep boxed elements", src: `
func main() {
    var m: int[][] = new int[][3];
    m[1] = new int[2];
    m[1][0] = 5;
    print(len(m), m[0] == null, m[1], m[1][0] + m[1][1]);
    var f: float[] = new float[2];
    f[1] = 1.5;
    print(f, f[0] < f[1]);
    var b: bool[] = new bool[2];
    b[0] = true;
    print(b, b[0] && !b[1]);
    var s: string[] = new string[2];
    s[1] = "x";
    print(s, s[0] + s[1]);
    print(m[2][0]);
}`},
	{name: "a float stored into an int array", src: `
func main() {
    var a: int[] = new int[3];
    var f: int = 0;
    a[0] = 4;
    a[1] = f;
    print(a, a[1], a[0] + 1, len(a));
    a[2] = 7;
    print(a);
}`, mutate: func(t *testing.T, p *ir.Program) {
		findStmt[*ir.AssignStmt](t, p.Funcs["main"].Body, 1).Rhs = &ir.Const{Kind: ir.ConstFloat, F: 2.5}
	}},
	{name: "split: hidden loop, sweep the budget", sweep: true, src: `
func f(x: int, y: int): int {
    var a: int = x * 3 + y;
    var s: int = 0;
    var i: int = 0;
    while (i < a) { s = s + i; i = i + 1; }
    return s;
}
func main() { print(f(2, 1)); print(f(0, 4)); }`,
		split: []core.Spec{{Func: "f", Seed: "a"}}},
	{name: "split: method of a class with state", src: `
class Acc {
    field total: int;
    method add(x: int): int {
        var t: int = x * 7 + 1;
        var u: int = t % 5;
        total = total + u;
        return total;
    }
}
func main() {
    var a: Acc = new Acc();
    var b: Acc = new Acc();
    for (var i: int = 0; i < 5; i++) { print(a.add(i), b.add(i * 2)); }
}`,
		split: []core.Spec{{Func: "Acc.add", Seed: "t"}}},
}

func TestDifferentialMachineVsInterpDirected(t *testing.T) {
	for _, tc := range directedCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := ir.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mutate != nil {
				tc.mutate(t, prog)
			}
			var res *core.Result
			if tc.split != nil {
				if res, err = core.SplitProgram(prog, tc.split, slicer.Policy{}); err != nil {
					t.Fatal(err)
				}
			}
			compareAllModes(t, "full", res, prog, 50_000_000)
			if !tc.sweep {
				return
			}
			_, total, _ := hrt.RunOriginal(prog, 0)
			for limit := int64(1); limit <= total+1; limit++ {
				compareAllModes(t, fmt.Sprintf("limit %d", limit), res, prog, limit)
			}
		})
	}
}

// findStmt returns the n-th statement of type S in list, not descending.
func findStmt[S ir.Stmt](t *testing.T, list []ir.Stmt, n int) S {
	t.Helper()
	for _, st := range list {
		if s, ok := st.(S); ok {
			if n == 0 {
				return s
			}
			n--
		}
	}
	var zero S
	t.Fatalf("no %T in the body", zero)
	return zero
}

// TestDifferentialMachineVsInterpHiddenFailure injects a hidden-call
// failure at every call index in turn. Synchronously it surfaces at the
// call; one-way it is deferred to the next barrier and must suppress
// exactly the output the synchronous run suppresses — on both engines.
func TestDifferentialMachineVsInterpHiddenFailure(t *testing.T) {
	prog := ir.MustCompile(`
func f(x: int, y: int): int {
    var a: int = x * 3 + y;
    var s: int = 0;
    var i: int = 0;
    while (i < a) { s = s + i; i = i + 1; }
    return s;
}
func main() {
    for (var n: int = 0; n < 4; n++) {
        print("round", n);
        print(f(n, 1));
    }
}`)
	res, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	clean := compareEngines(t, "clean", nil, res, runConfig{pipelined: true})
	oneWay := 0
	for _, ev := range clean.log {
		if strings.HasPrefix(ev, "oneway") {
			oneWay++
		}
	}
	if oneWay == 0 {
		t.Fatal("the split produced no one-way calls; the deferred-error path is not exercised")
	}
	for fail := 1; fail <= 12; fail++ {
		sync := compareEngines(t, fmt.Sprintf("sync fail %d", fail), nil, res, runConfig{failCall: fail})
		pipe := compareEngines(t, fmt.Sprintf("pipelined fail %d", fail), nil, res, runConfig{failCall: fail, pipelined: true})
		if sync.out != pipe.out {
			t.Fatalf("fail %d: pipelined run printed %q, synchronous run %q", fail, pipe.out, sync.out)
		}
		if sync.err == "" {
			t.Fatalf("fail %d: injected failure did not surface", fail)
		}
	}
}

// TestMachineDirectCalls drives Call and CallMethod the way the attack
// harnesses do: many invocations on one machine, steps accumulating.
func TestMachineDirectCalls(t *testing.T) {
	prog := ir.MustCompile(`
class Counter {
    field n: int;
    method inc(by: int): int { n = n + by; return n; }
}
var calls: int = 0;
func price(q: int, p: int): int { calls = calls + 1; return q * p + calls; }
func make(): Counter { return new Counter(); }
func main() { }`)
	drive := func(e engine) error {
		if err := e.Run(); err != nil { // initializes the globals
			return err
		}
		for i := int64(0); i < 5; i++ {
			v, err := e.Call("price", []interp.Value{interp.IntV(i), interp.IntV(3)})
			if err != nil {
				return err
			}
			if want := i*3 + i + 1; v.I != want {
				return fmt.Errorf("price(%d, 3) = %s, want %d", i, v, want)
			}
		}
		obj, err := e.Call("make", nil)
		if err != nil {
			return err
		}
		for i := int64(1); i <= 3; i++ {
			v, err := e.CallMethod("Counter.inc", obj.Obj(), []interp.Value{interp.IntV(i)})
			if err != nil {
				return err
			}
			if want := i * (i + 1) / 2; v.I != want {
				return fmt.Errorf("inc(%d) = %s, want %d", i, v, want)
			}
		}
		if _, err := e.Call("price", []interp.Value{interp.IntV(1)}); err == nil {
			return errors.New("wrong argument count accepted")
		}
		if _, err := e.CallMethod("Counter.inc", nil, []interp.Value{interp.IntV(1)}); err == nil {
			return errors.New("method ran without a receiver")
		}
		_, err = e.Call("missing", nil)
		return err
	}
	got := compareEngines(t, "direct calls", prog, nil, runConfig{drive: drive})
	if want := "runtime error: undefined function missing"; got.err != want {
		t.Fatalf("final error %q, want %q", got.err, want)
	}
}
