package interp

import (
	"fmt"
	"io"
	"strings"

	"slicehide/internal/ir"
	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/token"
	"slicehide/internal/lang/types"
)

// RuntimeError is an error raised during execution, with the source position
// of the failing statement when available.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.Valid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

// HiddenSession is implemented by the split runtime (package hrt); the
// interpreter calls it whenever an open component enters, exits, or invokes
// the hidden part of a split function.
type HiddenSession interface {
	// Enter opens a hidden activation for the split function fn and
	// returns its instance id. obj is the receiver's instance id for
	// methods of classes with hidden fields (0 otherwise).
	Enter(fn string, obj int64) (int64, error)
	// Exit closes the hidden activation.
	Exit(fn string, inst int64) error
	// Call executes hidden fragment frag of fn under instance inst.
	Call(fn string, inst int64, frag int, args []Value) (Value, error)
}

// AsyncHiddenSession is the pipelined variant of HiddenSession: reply-free
// operations are sent one-way into an ordered in-flight window instead of
// blocking for a round trip, and Barrier flushes the window. An
// implementation must preserve program order — a reply-bearing Call
// observes the effects of every earlier one-way operation — and must
// surface a one-way operation's error no later than the next Barrier or
// reply-bearing Call.
//
// The interpreter uses the async contract automatically when
// Options.Hidden implements it: Enter/Exit/non-leaking fragment calls go
// one-way, and a Barrier runs before every print statement and at the end
// of Run, so program output stays byte-identical to the synchronous
// execution (including which outputs an error suppresses).
type AsyncHiddenSession interface {
	HiddenSession
	// EnterAsync opens a hidden activation one-way, returning a
	// client-assigned instance id immediately.
	EnterAsync(fn string, obj int64) (int64, error)
	// ExitAsync closes the activation one-way.
	ExitAsync(fn string, inst int64) error
	// CallOneWay executes a reply-free hidden fragment without waiting.
	CallOneWay(fn string, inst int64, frag int, args []Value) error
	// Barrier blocks until every one-way operation has executed,
	// surfacing the first deferred error.
	Barrier() error
}

// Tracer observes the interpreter's split-runtime events: split-function
// activations opening and closing, and hidden fragment calls.
// Implementations must be cheap and must never record hidden values —
// the hooks deliberately expose only structure (names, ids, fragment
// numbers), which the open machine can observe anyway. Package hrt
// bridges this to the obs structured tracer.
type Tracer interface {
	// FragEnter fires after a split function's hidden activation opens.
	FragEnter(fn string, inst int64)
	// FragExit fires when the activation closes.
	FragExit(fn string, inst int64)
	// HiddenCall fires before each hidden fragment invocation; oneWay
	// reports whether the call is dispatched reply-free.
	HiddenCall(fn string, inst int64, frag int, oneWay bool)
}

// Options configures an interpreter.
type Options struct {
	// Out receives program output (print statements). Defaults to io.Discard.
	Out io.Writer
	// MaxSteps aborts execution after this many simple statements
	// (0 = unlimited). Guards tests against accidental infinite loops.
	MaxSteps int64
	// Hidden handles H(...) calls in split open components. Programs that
	// contain HCall statements fail if Hidden is nil.
	Hidden HiddenSession
	// SplitFuncs is the set of function qualified names that have hidden
	// components; entering one opens a hidden activation.
	SplitFuncs map[string]bool
	// Trace, when set, observes split-runtime events.
	Trace Tracer
}

// Interp executes a MiniJ IR program by walking its tree: the reference
// vm.Machine is tested against.
type Interp struct {
	prog    *ir.Program
	opts    Options
	globals map[*ir.Var]Value
	steps   int64
	nextObj int64
	depth   int
	// async is non-nil when opts.Hidden supports the pipelined contract.
	async AsyncHiddenSession
}

// New creates an interpreter for prog.
func New(prog *ir.Program, opts Options) *Interp {
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	in := &Interp{prog: prog, opts: opts, globals: make(map[*ir.Var]Value)}
	if ah, ok := opts.Hidden.(AsyncHiddenSession); ok {
		in.async = ah
	}
	return in
}

// Steps returns the number of simple statements executed so far.
func (in *Interp) Steps() int64 { return in.steps }

// Run initializes globals and executes main(). It returns the collected
// output only via opts.Out; the error reports runtime failures.
func (in *Interp) Run() error {
	if err := in.initGlobals(); err != nil {
		return err
	}
	if in.prog.Func("main") == nil {
		return &RuntimeError{Msg: "no main function"}
	}
	_, err := in.Call("main", nil)
	if err == nil && in.async != nil {
		// Drain the in-flight window before reporting success: a one-way
		// hidden operation near the end of the program may still hold a
		// deferred error.
		err = in.async.Barrier()
	}
	return err
}

func (in *Interp) initGlobals() error {
	fr := &frame{fn: nil, locals: map[*ir.Var]Value{}}
	for _, g := range in.prog.Globals {
		v := zero(g.Var)
		if g.Init != nil {
			var err error
			v, err = in.eval(fr, g.Init)
			if err != nil {
				return err
			}
		}
		in.globals[g.Var] = v
	}
	return nil
}

// Call invokes the function with qualified name qn on args.
func (in *Interp) Call(qn string, args []Value) (Value, error) {
	f := in.prog.Func(qn)
	if f == nil {
		return NullV(), &RuntimeError{Msg: "undefined function " + qn}
	}
	return in.callFunc(f, nil, args)
}

// CallMethod invokes a method on the given receiver.
func (in *Interp) CallMethod(qn string, recv *ObjectVal, args []Value) (Value, error) {
	f := in.prog.Func(qn)
	if f == nil {
		return NullV(), &RuntimeError{Msg: "undefined method " + qn}
	}
	return in.callFunc(f, recv, args)
}

type frame struct {
	fn     *ir.Func
	locals map[*ir.Var]Value
	this   *ObjectVal
	// inst is the hidden-activation instance id if fn is split.
	inst  int64
	split bool
}

// signal encodes non-sequential control flow inside statement execution.
type signal int

const (
	sigNone signal = iota
	sigBreak
	sigContinue
	sigReturn
)

const maxCallDepth = 10000

func (in *Interp) callFunc(f *ir.Func, recv *ObjectVal, args []Value) (Value, error) {
	if len(args) != len(f.Params) {
		return NullV(), &RuntimeError{Msg: fmt.Sprintf("%s: got %d args, want %d", f.QName(), len(args), len(f.Params))}
	}
	in.depth++
	if in.depth > maxCallDepth {
		in.depth--
		return NullV(), &RuntimeError{Msg: "call stack overflow"}
	}
	defer func() { in.depth-- }()

	fr := &frame{fn: f, locals: make(map[*ir.Var]Value, len(f.Params)+len(f.Locals)), this: recv}
	for i, p := range f.Params {
		fr.locals[p] = args[i]
	}
	if in.opts.SplitFuncs[f.QName()] {
		if in.opts.Hidden == nil {
			return NullV(), &RuntimeError{Msg: "split function " + f.QName() + " without hidden session"}
		}
		var objID int64
		if recv != nil {
			objID = recv.ID
		}
		var inst int64
		var err error
		if in.async != nil {
			// Pipelined: the instance id is client-assigned so Enter needs
			// no reply, and Exit goes one-way too. Errors surface at the
			// next barrier.
			inst, err = in.async.EnterAsync(f.QName(), objID)
		} else {
			inst, err = in.opts.Hidden.Enter(f.QName(), objID)
		}
		if err != nil {
			return NullV(), err
		}
		fr.inst, fr.split = inst, true
		if in.opts.Trace != nil {
			in.opts.Trace.FragEnter(f.QName(), inst)
		}
		defer func() {
			if in.async != nil {
				_ = in.async.ExitAsync(f.QName(), fr.inst)
			} else {
				_ = in.opts.Hidden.Exit(f.QName(), fr.inst)
			}
			if in.opts.Trace != nil {
				in.opts.Trace.FragExit(f.QName(), fr.inst)
			}
		}()
	}
	sig, val, err := in.execStmts(fr, f.Body)
	if err != nil {
		return NullV(), err
	}
	if sig == sigReturn {
		return val, nil
	}
	return NullV(), nil
}

func (in *Interp) execStmts(fr *frame, stmts []ir.Stmt) (signal, Value, error) {
	for _, s := range stmts {
		sig, v, err := in.execStmt(fr, s)
		if err != nil || sig != sigNone {
			return sig, v, err
		}
	}
	return sigNone, Value{}, nil
}

func (in *Interp) step(s ir.Stmt) error {
	in.steps++
	if in.opts.MaxSteps > 0 && in.steps > in.opts.MaxSteps {
		return &RuntimeError{Pos: s.Pos(), Msg: "step limit exceeded"}
	}
	return nil
}

// execStmt runs one statement. A runtime error that reaches it without a
// source position — raised by an expression, a call, or a nested statement
// the splitter synthesized — leaves with this statement's.
func (in *Interp) execStmt(fr *frame, s ir.Stmt) (signal, Value, error) {
	sig, v, err := in.exec(fr, s)
	if re, ok := err.(*RuntimeError); ok && !re.Pos.Valid() && s.Pos().Valid() {
		err = &RuntimeError{Pos: s.Pos(), Msg: re.Msg}
	}
	return sig, v, err
}

func (in *Interp) exec(fr *frame, s ir.Stmt) (signal, Value, error) {
	if err := in.step(s); err != nil {
		return sigNone, Value{}, err
	}
	switch s := s.(type) {
	case *ir.AssignStmt:
		v, err := in.eval(fr, s.Rhs)
		if err != nil {
			return sigNone, Value{}, err
		}
		return sigNone, Value{}, in.store(fr, s, s.Lhs, v)
	case *ir.IfStmt:
		c, err := in.eval(fr, s.Cond)
		if err != nil {
			return sigNone, Value{}, err
		}
		if c.IsTrue() {
			return in.execStmts(fr, s.Then)
		}
		return in.execStmts(fr, s.Else)
	case *ir.WhileStmt:
		for {
			c, err := in.eval(fr, s.Cond)
			if err != nil {
				return sigNone, Value{}, err
			}
			if !c.IsTrue() {
				return sigNone, Value{}, nil
			}
			sig, v, err := in.execStmts(fr, s.Body)
			if err != nil {
				return sigNone, Value{}, err
			}
			switch sig {
			case sigBreak:
				return sigNone, Value{}, nil
			case sigReturn:
				return sig, v, nil
			}
			// sigNone or sigContinue: run the post section.
			sig, v, err = in.execStmts(fr, s.Post)
			if err != nil {
				return sigNone, Value{}, err
			}
			switch sig {
			case sigBreak:
				return sigNone, Value{}, nil
			case sigReturn:
				return sig, v, nil
			}
			if err := in.step(s); err != nil { // count each iteration's re-test
				return sigNone, Value{}, err
			}
		}
	case *ir.ReturnStmt:
		if s.Value == nil {
			return sigReturn, NullV(), nil
		}
		v, err := in.eval(fr, s.Value)
		return sigReturn, v, err
	case *ir.BreakStmt:
		return sigBreak, Value{}, nil
	case *ir.ContinueStmt:
		return sigContinue, Value{}, nil
	case *ir.PrintStmt:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			v, err := in.eval(fr, a)
			if err != nil {
				return sigNone, Value{}, err
			}
			parts[i] = v.String()
		}
		if in.async != nil {
			// Output is externally visible: flush the in-flight window
			// first so a deferred one-way error suppresses exactly the
			// same output it would under synchronous execution.
			if err := in.async.Barrier(); err != nil {
				return sigNone, Value{}, err
			}
		}
		fmt.Fprintln(in.opts.Out, strings.Join(parts, " "))
		return sigNone, Value{}, nil
	case *ir.CallStmt:
		_, err := in.eval(fr, s.Call)
		return sigNone, Value{}, err
	case *ir.HCallStmt:
		if s.Call.NoReply && in.async != nil {
			return sigNone, Value{}, in.hcallOneWay(fr, s.Call)
		}
		_, err := in.eval(fr, s.Call)
		return sigNone, Value{}, err
	}
	return sigNone, Value{}, &RuntimeError{Pos: s.Pos(), Msg: fmt.Sprintf("unknown statement %T", s)}
}

// hcallOneWay dispatches a reply-free hidden statement call without
// blocking: the splitter marked it NoReply (its value is discarded and it
// leaks nothing), so the open side can keep running while the update is in
// flight.
func (in *Interp) hcallOneWay(fr *frame, e *ir.HCallExpr) error {
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := in.eval(fr, a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	if e.Component != "" {
		var inst int64
		if e.Obj != nil {
			ov, err := in.eval(fr, e.Obj)
			if err != nil {
				return err
			}
			if ov.Kind != KindObject || ov.Obj == nil {
				return &RuntimeError{Msg: "hidden-field access on null object"}
			}
			inst = ov.Obj.ID
		}
		if in.opts.Trace != nil {
			in.opts.Trace.HiddenCall(e.Component, inst, e.FragID, true)
		}
		return in.async.CallOneWay(e.Component, inst, e.FragID, args)
	}
	if in.opts.Trace != nil {
		in.opts.Trace.HiddenCall(fr.fn.QName(), fr.inst, e.FragID, true)
	}
	return in.async.CallOneWay(fr.fn.QName(), fr.inst, e.FragID, args)
}

func (in *Interp) store(fr *frame, s ir.Stmt, t ir.Target, v Value) error {
	switch t := t.(type) {
	case *ir.VarTarget:
		if t.Var.Kind == ir.VarGlobal {
			in.globals[t.Var] = v
		} else {
			fr.locals[t.Var] = v
		}
		return nil
	case *ir.IndexTarget:
		av, err := in.eval(fr, t.Arr)
		if err != nil {
			return err
		}
		iv, err := in.eval(fr, t.I)
		if err != nil {
			return err
		}
		if av.Kind != KindArray || av.Arr == nil {
			return &RuntimeError{Pos: s.Pos(), Msg: "store into null array"}
		}
		if iv.I < 0 || iv.I >= int64(len(av.Arr.Elems)) {
			return &RuntimeError{Pos: s.Pos(), Msg: fmt.Sprintf("index %d out of range [0,%d)", iv.I, len(av.Arr.Elems))}
		}
		av.Arr.Elems[iv.I] = v
		return nil
	case *ir.FieldTarget:
		ov, err := in.eval(fr, t.Obj)
		if err != nil {
			return err
		}
		if ov.Kind != KindObject || ov.Obj == nil {
			return &RuntimeError{Pos: s.Pos(), Msg: "store into null object"}
		}
		ov.Obj.Fields[t.Field] = v
		return nil
	}
	return &RuntimeError{Pos: s.Pos(), Msg: fmt.Sprintf("unknown target %T", t)}
}

func zero(v *ir.Var) Value { return zeroType(v.Type) }

// convertValue applies int(x) / float(x) semantics (float-to-int truncates).
func convertValue(toFloat bool, x Value) Value {
	if toFloat {
		if x.Kind == KindInt {
			return FloatV(float64(x.I))
		}
		return x
	}
	if x.Kind == KindFloat {
		return IntV(int64(x.F))
	}
	return x
}

// zeroType returns the zero value of a semantic type.
func zeroType(t types.Type) Value {
	b, ok := t.(*types.Basic)
	if !ok {
		return NullV()
	}
	switch b.Kind {
	case ast.Int:
		return IntV(0)
	case ast.Float:
		return FloatV(0)
	case ast.Bool:
		return BoolV(false)
	case ast.String:
		return StrV("")
	}
	return NullV()
}

func (in *Interp) eval(fr *frame, e ir.Expr) (Value, error) {
	switch e := e.(type) {
	case *ir.Const:
		switch e.Kind {
		case ir.ConstInt:
			return IntV(e.I), nil
		case ir.ConstFloat:
			return FloatV(e.F), nil
		case ir.ConstBool:
			return BoolV(e.B), nil
		case ir.ConstString:
			return StrV(e.S), nil
		case ir.ConstNull:
			return NullV(), nil
		}
	case *ir.VarRef:
		if e.Var.Kind == ir.VarGlobal {
			return in.globals[e.Var], nil
		}
		return fr.locals[e.Var], nil
	case *ir.ThisExpr:
		if fr.this == nil {
			return NullV(), &RuntimeError{Msg: "this outside method"}
		}
		return Value{Kind: KindObject, Obj: fr.this}, nil
	case *ir.Unary:
		x, err := in.eval(fr, e.X)
		if err != nil {
			return NullV(), err
		}
		switch e.Op {
		case token.MINUS:
			if x.Kind == KindFloat {
				return FloatV(-x.F), nil
			}
			return IntV(-x.I), nil
		case token.NOT:
			return BoolV(!x.B), nil
		}
	case *ir.Binary:
		// Short-circuit logical operators.
		if e.Op == token.AND || e.Op == token.OR {
			x, err := in.eval(fr, e.X)
			if err != nil {
				return NullV(), err
			}
			if e.Op == token.AND && !x.B {
				return BoolV(false), nil
			}
			if e.Op == token.OR && x.B {
				return BoolV(true), nil
			}
			y, err := in.eval(fr, e.Y)
			if err != nil {
				return NullV(), err
			}
			return BoolV(y.B), nil
		}
		x, err := in.eval(fr, e.X)
		if err != nil {
			return NullV(), err
		}
		y, err := in.eval(fr, e.Y)
		if err != nil {
			return NullV(), err
		}
		return EvalBinary(e.Op, x, y)
	case *ir.IndexExpr:
		av, err := in.eval(fr, e.Arr)
		if err != nil {
			return NullV(), err
		}
		iv, err := in.eval(fr, e.I)
		if err != nil {
			return NullV(), err
		}
		if av.Kind != KindArray || av.Arr == nil {
			return NullV(), &RuntimeError{Msg: "read from null array"}
		}
		if iv.I < 0 || iv.I >= int64(len(av.Arr.Elems)) {
			return NullV(), &RuntimeError{Msg: fmt.Sprintf("index %d out of range [0,%d)", iv.I, len(av.Arr.Elems))}
		}
		return av.Arr.Elems[iv.I], nil
	case *ir.FieldExpr:
		ov, err := in.eval(fr, e.Obj)
		if err != nil {
			return NullV(), err
		}
		if ov.Kind != KindObject || ov.Obj == nil {
			return NullV(), &RuntimeError{Msg: "read field of null object"}
		}
		return ov.Obj.Fields[e.Field], nil
	case *ir.CallExpr:
		args := make([]Value, len(e.Args))
		for i, a := range e.Args {
			v, err := in.eval(fr, a)
			if err != nil {
				return NullV(), err
			}
			args[i] = v
		}
		var recv *ObjectVal
		if e.Recv != nil {
			rv, err := in.eval(fr, e.Recv)
			if err != nil {
				return NullV(), err
			}
			if rv.Kind != KindObject || rv.Obj == nil {
				return NullV(), &RuntimeError{Msg: "method call on null object"}
			}
			recv = rv.Obj
		}
		f := in.prog.Func(e.Callee)
		if f == nil {
			return NullV(), &RuntimeError{Msg: "undefined function " + e.Callee}
		}
		return in.callFunc(f, recv, args)
	case *ir.NewObjectExpr:
		in.nextObj++
		obj := &ObjectVal{Class: e.Class, Fields: map[string]Value{}, ID: in.nextObj}
		if cl := in.prog.Classes[e.Class]; cl != nil {
			for _, fv := range cl.Fields {
				obj.Fields[fv.Name] = zeroOf(fv)
			}
		}
		return Value{Kind: KindObject, Obj: obj}, nil
	case *ir.NewArrayExpr:
		sz, err := in.eval(fr, e.Size)
		if err != nil {
			return NullV(), err
		}
		if sz.I < 0 {
			return NullV(), &RuntimeError{Msg: fmt.Sprintf("negative array size %d", sz.I)}
		}
		const maxArray = 1 << 26
		if sz.I > maxArray {
			return NullV(), &RuntimeError{Msg: fmt.Sprintf("array size %d too large", sz.I)}
		}
		elems := make([]Value, sz.I)
		z := zeroType(e.Elem)
		for i := range elems {
			elems[i] = z
		}
		return Value{Kind: KindArray, Arr: &ArrayVal{Elems: elems}}, nil
	case *ir.LenExpr:
		av, err := in.eval(fr, e.Arr)
		if err != nil {
			return NullV(), err
		}
		switch av.Kind {
		case KindArray:
			if av.Arr == nil {
				return NullV(), &RuntimeError{Msg: "len of null array"}
			}
			return IntV(int64(len(av.Arr.Elems))), nil
		case KindString:
			return IntV(int64(len(av.S))), nil
		}
		return NullV(), &RuntimeError{Msg: "len of non-array"}
	case *ir.CondExpr:
		c, err := in.eval(fr, e.C)
		if err != nil {
			return NullV(), err
		}
		if c.IsTrue() {
			return in.eval(fr, e.T)
		}
		return in.eval(fr, e.F)
	case *ir.ConvertExpr:
		x, err := in.eval(fr, e.X)
		if err != nil {
			return NullV(), err
		}
		return convertValue(e.ToFloat, x), nil
	case *ir.HCallExpr:
		if in.opts.Hidden == nil {
			return NullV(), &RuntimeError{Msg: "H(...) call without hidden session"}
		}
		args := make([]Value, len(e.Args))
		for i, a := range e.Args {
			v, err := in.eval(fr, a)
			if err != nil {
				return NullV(), err
			}
			args[i] = v
		}
		if e.Component != "" {
			// Shared component: hidden globals use the single program-level
			// activation (id 0); hidden class fields address the store of
			// the object the call names.
			var inst int64
			if e.Obj != nil {
				ov, err := in.eval(fr, e.Obj)
				if err != nil {
					return NullV(), err
				}
				if ov.Kind != KindObject || ov.Obj == nil {
					return NullV(), &RuntimeError{Msg: "hidden-field access on null object"}
				}
				inst = ov.Obj.ID
			}
			if in.opts.Trace != nil {
				in.opts.Trace.HiddenCall(e.Component, inst, e.FragID, false)
			}
			return in.opts.Hidden.Call(e.Component, inst, e.FragID, args)
		}
		if in.opts.Trace != nil {
			in.opts.Trace.HiddenCall(fr.fn.QName(), fr.inst, e.FragID, false)
		}
		return in.opts.Hidden.Call(fr.fn.QName(), fr.inst, e.FragID, args)
	}
	return NullV(), &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", e)}
}

// EvalBinary applies a (non-short-circuit) binary operator to two values.
// Exported so the hidden-component executor evaluates expressions with
// identical semantics. The semantics themselves live in EvalBinOp, keyed
// by the language-neutral operator enum.
func EvalBinary(op token.Kind, x, y Value) (Value, error) {
	return EvalBinOp(ir.BinOpOf(op), x, y)
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func zeroOf(v *ir.Var) Value { return zeroType(v.Type) }
