package vm

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
)

// Machine executes a whole MiniJ program — an unsplit original or the open
// component of a split one — as bytecode on the same dispatch loop the
// hidden fragments run on. It is the production open-side engine; the
// tree-walking oracle.Interp is its reference, and the differential tests
// hold the two to identical output, errors, step counts and hidden-session
// call sequences.
//
// Every function runs in a register window of one contiguous value stack:
// [params | this | locals | temps]. A caller evaluates arguments and
// receiver straight into the callee's first slots, so a call copies
// nothing and allocates nothing. A Machine is not safe for concurrent use.
type Machine struct {
	opts  interp.Options
	async interp.AsyncHiddenSession
	limit int64

	funcs map[string]*funcCode
	// globalInit is the global initializers' code, in declaration order.
	globalInit *funcCode
	fails      []error
	names      []string // field names OpGetField/OpSetField address
	classes    []classInfo
	calls      []callSite
	hcalls     []hcallSite

	stack  []interp.Value
	frames []frame
	// fn is the running function and base its window's offset in stack;
	// sp is the operand file the dispatch loop addresses: the constant
	// pool, the globals, and as the temp space fn's window.
	fn      *funcCode
	base    int
	sp      spaces
	steps   int64
	nextObj int64
}

// funcCode is one compiled function.
type funcCode struct {
	name    string
	code    []Instr
	nparams int
	nlocals int
	nregs   int // window size: params, this, locals, temps
	split   bool
	// stmts maps code back to statements, in code order; consulted only
	// on the error path.
	stmts []stmtInfo
}

// stmtInfo locates one statement in a function's code.
type stmtInfo struct {
	pc   int32
	stmt ir.Stmt
	// parent is the enclosing statement's index, -1 at function level.
	parent int32
	// uncharged is how many steps an error raised by this statement's code
	// still owes: OpStep charges a run of simple statements after they ran,
	// so the n-th of a run fails with n steps not yet counted.
	uncharged int32
}

type classInfo struct {
	name   string
	fields []fieldInit
}

type fieldInit struct {
	name string
	zero interp.Value
}

// callSite is the compile-time resolution of one call expression.
type callSite struct {
	fn    *funcCode
	nargs int
	recv  bool
	// err is raised in place of the call: undefined callee or wrong
	// argument count, checked — like the walker — after the receiver.
	err error
}

// hcallSite is the compile-time resolution of one hidden call.
type hcallSite struct {
	comp    string // shared component; "" addresses the caller's own
	frag    int
	argBase int32
	nargs   int32
	obj     bool // shared component addressed through an object's store
	oneWay  bool
}

// frame is one call-stack record: where to resume the caller, plus the
// hidden-activation id of the function the call entered.
type frame struct {
	fn   *funcCode // caller; nil below the entry function
	pc   int
	base int
	dst  uint32
	inst int64
}

const maxCallDepth = 10000

var (
	errStackOverflow = &interp.RuntimeError{Msg: "call stack overflow"}
	errNullRecv      = &interp.RuntimeError{Msg: "method call on null object"}
	errHiddenNullObj = &interp.RuntimeError{Msg: "hidden-field access on null object"}
)

// NewMachine compiles prog and returns a machine ready to run it.
func NewMachine(prog *ir.Program, opts interp.Options) *Machine {
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	m := &Machine{opts: opts, limit: opts.MaxSteps}
	if m.limit <= 0 {
		m.limit = math.MaxInt64
	}
	if ah, ok := opts.Hidden.(interp.AsyncHiddenSession); ok {
		m.async = ah
	}
	compileMachine(m, prog)
	return m
}

// Steps returns the number of simple statements executed so far.
func (m *Machine) Steps() int64 { return m.steps }

// Run initializes globals and executes main(). Output goes to opts.Out;
// the error reports runtime failures.
func (m *Machine) Run() error {
	if _, err := m.invoke(m.globalInit, nil, nil); err != nil {
		return err
	}
	if m.funcs["main"] == nil {
		return &interp.RuntimeError{Msg: "no main function"}
	}
	_, err := m.Call("main", nil)
	if err == nil && m.async != nil {
		// Drain the in-flight window before reporting success: a one-way
		// hidden operation near the end of the program may still hold a
		// deferred error.
		err = m.async.Barrier()
	}
	return err
}

// Call invokes the function with qualified name qn on args.
func (m *Machine) Call(qn string, args []interp.Value) (interp.Value, error) {
	f := m.funcs[qn]
	if f == nil {
		return interp.NullV(), &interp.RuntimeError{Msg: "undefined function " + qn}
	}
	return m.invoke(f, nil, args)
}

// CallMethod invokes a method on the given receiver.
func (m *Machine) CallMethod(qn string, recv *interp.ObjectVal, args []interp.Value) (interp.Value, error) {
	f := m.funcs[qn]
	if f == nil {
		return interp.NullV(), &interp.RuntimeError{Msg: "undefined method " + qn}
	}
	return m.invoke(f, recv, args)
}

func argCountErr(name string, got, want int) error {
	return &interp.RuntimeError{Msg: fmt.Sprintf("%s: got %d args, want %d", name, got, want)}
}

// invoke runs f from Go: it lays the arguments out as a compiled caller
// would and enters the dispatch loop at the bottom of the stack.
func (m *Machine) invoke(f *funcCode, recv *interp.ObjectVal, args []interp.Value) (v interp.Value, err error) {
	if len(args) != f.nparams {
		return interp.NullV(), argCountErr(f.name, len(args), f.nparams)
	}
	m.grow(f.nparams + 1)
	copy(m.stack, args)
	m.stack[f.nparams] = interp.Value{}
	if recv != nil {
		m.stack[f.nparams] = interp.ObjV(recv)
	}
	if err := m.enter(f, 0, f.nparams+1, frame{}); err != nil {
		return interp.NullV(), err
	}
	m.window(f, 0)
	err = run(m, f.code, &m.sp, m.fails, nil, m.steps, m.limit, &v)
	return v, err
}

// window makes fn, whose registers start at stack offset base, the running
// function.
func (m *Machine) window(fn *funcCode, base int) {
	m.fn, m.base = fn, base
	m.sp[spcTemp] = m.stack[base : base+fn.nregs]
}

// call performs the OpCall in, found at pc of the running function, and
// returns the callee's code.
func (m *Machine) call(in *Instr, pc int) ([]Instr, error) {
	site := &m.calls[in.A]
	base := m.base + int(in.B)
	if err := m.push(site, base, frame{fn: m.fn, pc: pc + 1, base: m.base, dst: in.Dst}); err != nil {
		return nil, err
	}
	m.window(site.fn, base)
	return site.fn.code, nil
}

// ret returns v from the running function and reports where its caller
// resumes; nil code means the entry function returned.
func (m *Machine) ret(v *interp.Value) ([]Instr, int) {
	fr := m.pop(m.fn)
	if fr.fn == nil {
		return nil, 0
	}
	m.window(fr.fn, fr.base)
	m.sp[fr.dst>>opdShift][fr.dst&opdIdxMask] = *v
	return fr.fn.code, fr.pc
}

func (m *Machine) grow(n int) {
	if n <= len(m.stack) {
		return
	}
	ns := make([]interp.Value, max(n, 2*len(m.stack)))
	copy(ns, m.stack)
	m.stack = ns
}

// push performs the call at site, whose arguments (and receiver, in the
// slot after them) the caller already stored at stack offset base. ret says
// where the caller resumes. Checks run in the walker's order: receiver,
// callee, argument count, depth.
func (m *Machine) push(site *callSite, base int, ret frame) error {
	live := site.nargs
	if site.recv {
		if this := &m.stack[base+site.nargs]; this.Obj() == nil {
			return errNullRecv
		}
		live++
	}
	if site.err != nil {
		return site.err
	}
	return m.enter(site.fn, base, live, ret)
}

// enter opens f's window at stack offset base, where the first live slots
// (arguments, then possibly a receiver) are already in place.
func (m *Machine) enter(f *funcCode, base, live int, ret frame) error {
	if len(m.frames) >= maxCallDepth {
		return errStackOverflow
	}
	m.grow(base + f.nregs)
	// Unassigned locals read as the zero Value, like the walker's per-call
	// map; without a receiver the this slot is cleared with them.
	clear(m.stack[base+live : base+f.nparams+1+f.nlocals])
	if f.split {
		if m.opts.Hidden == nil {
			return &interp.RuntimeError{Msg: "split function " + f.name + " without hidden session"}
		}
		var obj int64
		if this := &m.stack[base+f.nparams]; this.Obj() != nil {
			obj = this.Obj().ID
		}
		var err error
		if m.async != nil {
			// Pipelined: the instance id is client-assigned so Enter needs
			// no reply, and Exit goes one-way too. Errors surface at the
			// next barrier.
			ret.inst, err = m.async.EnterAsync(f.name, obj)
		} else {
			ret.inst, err = m.opts.Hidden.Enter(f.name, obj)
		}
		if err != nil {
			return err
		}
		if m.opts.Trace != nil {
			m.opts.Trace.FragEnter(f.name, ret.inst)
		}
	}
	m.frames = append(m.frames, ret)
	return nil
}

// pop leaves fn, closing its hidden activation, and returns the record of
// the call that entered it.
func (m *Machine) pop(fn *funcCode) frame {
	top := len(m.frames) - 1
	fr := m.frames[top]
	m.frames = m.frames[:top]
	if fn.split {
		if m.async != nil {
			_ = m.async.ExitAsync(fn.name, fr.inst)
		} else {
			_ = m.opts.Hidden.Exit(fn.name, fr.inst)
		}
		if m.opts.Trace != nil {
			m.opts.Trace.FragExit(fn.name, fr.inst)
		}
	}
	return fr
}

// stmtAt returns the index of the statement whose code contains pc, or -1.
func (f *funcCode) stmtAt(pc int) int {
	return sort.Search(len(f.stmts), func(i int) bool { return int(f.stmts[i].pc) > pc }) - 1
}

// abort ends a run on err, raised at pc of fn: it settles the step count,
// gives the error its statement's position and unwinds the call stack.
func (m *Machine) abort(err error, pc int, steps int64) error {
	fn := m.fn
	at := fn.stmtAt(pc)
	if at >= 0 {
		steps += int64(fn.stmts[at].uncharged)
		if steps > m.limit {
			// The walker counts each statement before running it, so one
			// of the uncharged statements ahead of the failing one hits
			// the limit first.
			return m.abortAtLimit(at, steps)
		}
	}
	m.steps = steps
	return m.unwind(err, fn, at)
}

// abortAtLimit ends a run whose step count passed the limit while charging
// the run of statements that ends at statement last of the running
// function. The walker stops at the first statement over the limit, one
// step past it.
func (m *Machine) abortAtLimit(last int, steps int64) error {
	fn := m.fn
	at := last - int(steps-m.limit-1)
	m.steps = m.limit + 1
	return m.unwind(&interp.RuntimeError{Pos: fn.stmts[at].stmt.Pos(), Msg: "step limit exceeded"}, fn, at)
}

// unwind pops every frame, innermost first, as the walker's returns do:
// an unpositioned runtime error takes the position of the nearest
// enclosing statement that has one, and split functions close their
// activations.
func (m *Machine) unwind(err error, fn *funcCode, at int) error {
	for len(m.frames) > 0 {
		if re, ok := err.(*interp.RuntimeError); ok && !re.Pos.Valid() {
			for i := at; i >= 0; i = int(fn.stmts[i].parent) {
				if pos := fn.stmts[i].stmt.Pos(); pos.Valid() {
					err = &interp.RuntimeError{Pos: pos, Msg: re.Msg}
					break
				}
			}
		}
		ret := m.pop(fn)
		if fn = ret.fn; fn != nil {
			at = fn.stmtAt(ret.pc - 1)
		}
	}
	return err
}

// hcall performs one hidden call from the running function. obj is the
// object operand of a shared-store call.
func (m *Machine) hcall(site *hcallSite, obj *interp.Value) (interp.Value, error) {
	// A fresh slice per call: the transport may retain it (the pipelined
	// stream keeps requests in its resend window).
	args := make([]interp.Value, site.nargs)
	copy(args, m.sp[spcTemp][site.argBase:])
	comp, inst := m.fn.name, m.frames[len(m.frames)-1].inst
	if site.comp != "" {
		// Shared component: hidden globals use the single program-level
		// activation (id 0); hidden class fields address the store of the
		// object the call names.
		comp, inst = site.comp, 0
		if site.obj {
			if obj.Obj() == nil {
				return interp.NullV(), errHiddenNullObj
			}
			inst = obj.Obj().ID
		}
	}
	if m.opts.Trace != nil {
		m.opts.Trace.HiddenCall(comp, inst, site.frag, site.oneWay)
	}
	if site.oneWay {
		return interp.NullV(), m.async.CallOneWay(comp, inst, site.frag, args)
	}
	return m.opts.Hidden.Call(comp, inst, site.frag, args)
}

// print writes one line of program output from already-rendered parts.
func (m *Machine) print(parts []interp.Value) error {
	if m.async != nil {
		// Output is externally visible: flush the in-flight window first
		// so a deferred one-way error suppresses exactly the same output
		// it would under synchronous execution.
		if err := m.async.Barrier(); err != nil {
			return err
		}
	}
	var b strings.Builder
	for i := range parts {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(parts[i].S())
	}
	b.WriteByte('\n')
	_, _ = io.WriteString(m.opts.Out, b.String()) // like the walker's Fprintln, output errors are not the program's
	return nil
}

func (m *Machine) newObject(cl *classInfo) interp.Value {
	m.nextObj++
	obj := &interp.ObjectVal{Class: cl.name, Fields: make(map[string]interp.Value, len(cl.fields)), ID: m.nextObj}
	for _, f := range cl.fields {
		obj.Fields[f.name] = f.zero
	}
	return interp.ObjV(obj)
}

func indexErr(i int64, n int) error {
	return &interp.RuntimeError{Msg: fmt.Sprintf("index %d out of range [0,%d)", i, n)}
}
