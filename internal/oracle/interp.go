// Package oracle holds the reference executors the differential tests hold
// the bytecode VM (package vm) to: Interp, the tree-walking interpreter of
// whole MiniJ programs, and RunFragment, the tree-walking executor of hidden
// fragments. Both define the language's semantics by walking IR directly.
// RandProgram generates the random programs the property and differential
// tests feed them.
//
// Nothing that ships links this package: only _test.go files import it
// (`make oracle-tests-only` checks that, and that the package imports no
// execution-side package, so the internal tests of vm and hrt can use it).
package oracle

import (
	"fmt"
	"io"
	"strings"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/token"
	"slicehide/internal/lang/types"
)

// Interp executes a MiniJ IR program by walking its tree: the reference
// vm.Machine is tested against.
type Interp struct {
	prog    *ir.Program
	opts    interp.Options
	globals map[*ir.Var]interp.Value
	steps   int64
	nextObj int64
	depth   int
	// async is non-nil when opts.Hidden supports the pipelined contract.
	async interp.AsyncHiddenSession
}

// New creates an interpreter for prog.
func New(prog *ir.Program, opts interp.Options) *Interp {
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	in := &Interp{prog: prog, opts: opts, globals: make(map[*ir.Var]interp.Value)}
	if ah, ok := opts.Hidden.(interp.AsyncHiddenSession); ok {
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
		return &interp.RuntimeError{Msg: "no main function"}
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
	fr := &frame{fn: nil, locals: map[*ir.Var]interp.Value{}}
	for _, g := range in.prog.Globals {
		v := zeroOf(g.Var)
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
func (in *Interp) Call(qn string, args []interp.Value) (interp.Value, error) {
	f := in.prog.Func(qn)
	if f == nil {
		return interp.NullV(), &interp.RuntimeError{Msg: "undefined function " + qn}
	}
	return in.callFunc(f, nil, args)
}

type frame struct {
	fn     *ir.Func
	locals map[*ir.Var]interp.Value
	this   *interp.ObjectVal
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

func (in *Interp) callFunc(f *ir.Func, recv *interp.ObjectVal, args []interp.Value) (interp.Value, error) {
	if len(args) != len(f.Params) {
		return interp.NullV(), &interp.RuntimeError{Msg: fmt.Sprintf("%s: got %d args, want %d", f.QName(), len(args), len(f.Params))}
	}
	in.depth++
	if in.depth > maxCallDepth {
		in.depth--
		return interp.NullV(), &interp.RuntimeError{Msg: "call stack overflow"}
	}
	defer func() { in.depth-- }()

	fr := &frame{fn: f, locals: make(map[*ir.Var]interp.Value, len(f.Params)+len(f.Locals)), this: recv}
	for i, p := range f.Params {
		fr.locals[p] = args[i]
	}
	if in.opts.SplitFuncs[f.QName()] {
		if in.opts.Hidden == nil {
			return interp.NullV(), &interp.RuntimeError{Msg: "split function " + f.QName() + " without hidden session"}
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
			return interp.NullV(), err
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
		return interp.NullV(), err
	}
	if sig == sigReturn {
		return val, nil
	}
	return interp.NullV(), nil
}

func (in *Interp) execStmts(fr *frame, stmts []ir.Stmt) (signal, interp.Value, error) {
	for _, s := range stmts {
		sig, v, err := in.execStmt(fr, s)
		if err != nil || sig != sigNone {
			return sig, v, err
		}
	}
	return sigNone, interp.Value{}, nil
}

func (in *Interp) step(s ir.Stmt) error {
	in.steps++
	if in.opts.MaxSteps > 0 && in.steps > in.opts.MaxSteps {
		return &interp.RuntimeError{Pos: s.Pos(), Msg: "step limit exceeded"}
	}
	return nil
}

// execStmt runs one statement. A runtime error that reaches it without a
// source position — raised by an expression, a call, or a nested statement
// the splitter synthesized — leaves with this statement's.
func (in *Interp) execStmt(fr *frame, s ir.Stmt) (signal, interp.Value, error) {
	sig, v, err := in.exec(fr, s)
	if re, ok := err.(*interp.RuntimeError); ok && !re.Pos.Valid() && s.Pos().Valid() {
		err = &interp.RuntimeError{Pos: s.Pos(), Msg: re.Msg}
	}
	return sig, v, err
}

func (in *Interp) exec(fr *frame, s ir.Stmt) (signal, interp.Value, error) {
	if err := in.step(s); err != nil {
		return sigNone, interp.Value{}, err
	}
	switch s := s.(type) {
	case *ir.AssignStmt:
		v, err := in.eval(fr, s.Rhs)
		if err != nil {
			return sigNone, interp.Value{}, err
		}
		return sigNone, interp.Value{}, in.store(fr, s, s.Lhs, v)
	case *ir.IfStmt:
		c, err := in.eval(fr, s.Cond)
		if err != nil {
			return sigNone, interp.Value{}, err
		}
		if c.B() {
			return in.execStmts(fr, s.Then)
		}
		return in.execStmts(fr, s.Else)
	case *ir.WhileStmt:
		for {
			c, err := in.eval(fr, s.Cond)
			if err != nil {
				return sigNone, interp.Value{}, err
			}
			if !c.B() {
				return sigNone, interp.Value{}, nil
			}
			sig, v, err := in.execStmts(fr, s.Body)
			if err != nil {
				return sigNone, interp.Value{}, err
			}
			switch sig {
			case sigBreak:
				return sigNone, interp.Value{}, nil
			case sigReturn:
				return sig, v, nil
			}
			// sigNone or sigContinue: run the post section.
			sig, v, err = in.execStmts(fr, s.Post)
			if err != nil {
				return sigNone, interp.Value{}, err
			}
			switch sig {
			case sigBreak:
				return sigNone, interp.Value{}, nil
			case sigReturn:
				return sig, v, nil
			}
			if err := in.step(s); err != nil { // count each iteration's re-test
				return sigNone, interp.Value{}, err
			}
		}
	case *ir.ReturnStmt:
		if s.Value == nil {
			return sigReturn, interp.NullV(), nil
		}
		v, err := in.eval(fr, s.Value)
		return sigReturn, v, err
	case *ir.BreakStmt:
		return sigBreak, interp.Value{}, nil
	case *ir.ContinueStmt:
		return sigContinue, interp.Value{}, nil
	case *ir.PrintStmt:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			v, err := in.eval(fr, a)
			if err != nil {
				return sigNone, interp.Value{}, err
			}
			parts[i] = v.String()
		}
		if in.async != nil {
			// Output is externally visible: flush the in-flight window
			// first so a deferred one-way error suppresses exactly the
			// same output it would under synchronous execution.
			if err := in.async.Barrier(); err != nil {
				return sigNone, interp.Value{}, err
			}
		}
		fmt.Fprintln(in.opts.Out, strings.Join(parts, " "))
		return sigNone, interp.Value{}, nil
	case *ir.CallStmt:
		_, err := in.eval(fr, s.Call)
		return sigNone, interp.Value{}, err
	case *ir.HCallStmt:
		if s.Call.NoReply && in.async != nil {
			return sigNone, interp.Value{}, in.hcallOneWay(fr, s.Call)
		}
		_, err := in.eval(fr, s.Call)
		return sigNone, interp.Value{}, err
	}
	return sigNone, interp.Value{}, &interp.RuntimeError{Pos: s.Pos(), Msg: fmt.Sprintf("unknown statement %T", s)}
}

// hcallOneWay dispatches a reply-free hidden statement call without
// blocking: the splitter marked it NoReply (its value is discarded and it
// leaks nothing), so the open side can keep running while the update is in
// flight.
func (in *Interp) hcallOneWay(fr *frame, e *ir.HCallExpr) error {
	args := make([]interp.Value, len(e.Args))
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
			if ov.Obj() == nil {
				return &interp.RuntimeError{Msg: "hidden-field access on null object"}
			}
			inst = ov.Obj().ID
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

func (in *Interp) store(fr *frame, s ir.Stmt, t ir.Target, v interp.Value) error {
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
		if av.Arr() == nil {
			return &interp.RuntimeError{Pos: s.Pos(), Msg: "store into null array"}
		}
		if iv.I < 0 || iv.I >= int64(len(av.Arr().Elems)) {
			return &interp.RuntimeError{Pos: s.Pos(), Msg: fmt.Sprintf("index %d out of range [0,%d)", iv.I, len(av.Arr().Elems))}
		}
		av.Arr().Elems[iv.I] = v
		return nil
	case *ir.FieldTarget:
		ov, err := in.eval(fr, t.Obj)
		if err != nil {
			return err
		}
		if ov.Obj() == nil {
			return &interp.RuntimeError{Pos: s.Pos(), Msg: "store into null object"}
		}
		ov.Obj().Fields[t.Field] = v
		return nil
	}
	return &interp.RuntimeError{Pos: s.Pos(), Msg: fmt.Sprintf("unknown target %T", t)}
}

// convertValue applies int(x) / float(x) semantics (float-to-int truncates).
func convertValue(toFloat bool, x interp.Value) interp.Value {
	if toFloat {
		if x.Kind == interp.KindInt {
			return interp.FloatV(float64(x.I))
		}
		return x
	}
	if x.Kind == interp.KindFloat {
		return interp.IntV(int64(x.F()))
	}
	return x
}

// zeroType returns the zero value of a semantic type.
func zeroType(t types.Type) interp.Value {
	b, ok := t.(*types.Basic)
	if !ok {
		return interp.NullV()
	}
	switch b.Kind {
	case ast.Int:
		return interp.IntV(0)
	case ast.Float:
		return interp.FloatV(0)
	case ast.Bool:
		return interp.BoolV(false)
	case ast.String:
		return interp.StrV("")
	}
	return interp.NullV()
}

func zeroOf(v *ir.Var) interp.Value { return zeroType(v.Type) }

// evalBinary applies a non-short-circuit binary operator with the one
// definition of its semantics, EvalBinOp.
func evalBinary(op token.Kind, x, y interp.Value) (interp.Value, error) {
	return EvalBinOp(ir.BinOpOf(op), x, y)
}

func (in *Interp) eval(fr *frame, e ir.Expr) (interp.Value, error) {
	switch e := e.(type) {
	case *ir.Const:
		switch e.Kind {
		case ir.ConstInt:
			return interp.IntV(e.I), nil
		case ir.ConstFloat:
			return interp.FloatV(e.F), nil
		case ir.ConstBool:
			return interp.BoolV(e.B), nil
		case ir.ConstString:
			return interp.StrV(e.S), nil
		case ir.ConstNull:
			return interp.NullV(), nil
		}
	case *ir.VarRef:
		if e.Var.Kind == ir.VarGlobal {
			return in.globals[e.Var], nil
		}
		return fr.locals[e.Var], nil
	case *ir.ThisExpr:
		if fr.this == nil {
			return interp.NullV(), &interp.RuntimeError{Msg: "this outside method"}
		}
		return interp.ObjV(fr.this), nil
	case *ir.Unary:
		x, err := in.eval(fr, e.X)
		if err != nil {
			return interp.NullV(), err
		}
		switch e.Op {
		case token.MINUS:
			if x.Kind == interp.KindFloat {
				return interp.FloatV(-x.F()), nil
			}
			return interp.IntV(-x.I), nil
		case token.NOT:
			return interp.BoolV(!x.B()), nil
		}
	case *ir.Binary:
		// Short-circuit logical operators.
		if e.Op == token.AND || e.Op == token.OR {
			x, err := in.eval(fr, e.X)
			if err != nil {
				return interp.NullV(), err
			}
			if e.Op == token.AND && !x.B() {
				return interp.BoolV(false), nil
			}
			if e.Op == token.OR && x.B() {
				return interp.BoolV(true), nil
			}
			y, err := in.eval(fr, e.Y)
			if err != nil {
				return interp.NullV(), err
			}
			return interp.BoolV(y.B()), nil
		}
		x, err := in.eval(fr, e.X)
		if err != nil {
			return interp.NullV(), err
		}
		y, err := in.eval(fr, e.Y)
		if err != nil {
			return interp.NullV(), err
		}
		return evalBinary(e.Op, x, y)
	case *ir.IndexExpr:
		av, err := in.eval(fr, e.Arr)
		if err != nil {
			return interp.NullV(), err
		}
		iv, err := in.eval(fr, e.I)
		if err != nil {
			return interp.NullV(), err
		}
		if av.Arr() == nil {
			return interp.NullV(), &interp.RuntimeError{Msg: "read from null array"}
		}
		if iv.I < 0 || iv.I >= int64(len(av.Arr().Elems)) {
			return interp.NullV(), &interp.RuntimeError{Msg: fmt.Sprintf("index %d out of range [0,%d)", iv.I, len(av.Arr().Elems))}
		}
		return av.Arr().Elems[iv.I], nil
	case *ir.FieldExpr:
		ov, err := in.eval(fr, e.Obj)
		if err != nil {
			return interp.NullV(), err
		}
		if ov.Obj() == nil {
			return interp.NullV(), &interp.RuntimeError{Msg: "read field of null object"}
		}
		return ov.Obj().Fields[e.Field], nil
	case *ir.CallExpr:
		args := make([]interp.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := in.eval(fr, a)
			if err != nil {
				return interp.NullV(), err
			}
			args[i] = v
		}
		var recv *interp.ObjectVal
		if e.Recv != nil {
			rv, err := in.eval(fr, e.Recv)
			if err != nil {
				return interp.NullV(), err
			}
			if rv.Obj() == nil {
				return interp.NullV(), &interp.RuntimeError{Msg: "method call on null object"}
			}
			recv = rv.Obj()
		}
		f := in.prog.Func(e.Callee)
		if f == nil {
			return interp.NullV(), &interp.RuntimeError{Msg: "undefined function " + e.Callee}
		}
		return in.callFunc(f, recv, args)
	case *ir.NewObjectExpr:
		in.nextObj++
		obj := &interp.ObjectVal{Class: e.Class, Fields: map[string]interp.Value{}, ID: in.nextObj}
		if cl := in.prog.Classes[e.Class]; cl != nil {
			for _, fv := range cl.Fields {
				obj.Fields[fv.Name] = zeroOf(fv)
			}
		}
		return interp.ObjV(obj), nil
	case *ir.NewArrayExpr:
		sz, err := in.eval(fr, e.Size)
		if err != nil {
			return interp.NullV(), err
		}
		if sz.I < 0 {
			return interp.NullV(), &interp.RuntimeError{Msg: fmt.Sprintf("negative array size %d", sz.I)}
		}
		const maxArray = 1 << 26
		if sz.I > maxArray {
			return interp.NullV(), &interp.RuntimeError{Msg: fmt.Sprintf("array size %d too large", sz.I)}
		}
		elems := make([]interp.Value, sz.I)
		z := zeroType(e.Elem)
		for i := range elems {
			elems[i] = z
		}
		return interp.ArrV(&interp.ArrayVal{Elems: elems}), nil
	case *ir.LenExpr:
		av, err := in.eval(fr, e.Arr)
		if err != nil {
			return interp.NullV(), err
		}
		switch av.Kind {
		case interp.KindArray:
			if av.Arr() == nil {
				return interp.NullV(), &interp.RuntimeError{Msg: "len of null array"}
			}
			return interp.IntV(int64(len(av.Arr().Elems))), nil
		case interp.KindString:
			return interp.IntV(int64(len(av.S()))), nil
		}
		return interp.NullV(), &interp.RuntimeError{Msg: "len of non-array"}
	case *ir.CondExpr:
		c, err := in.eval(fr, e.C)
		if err != nil {
			return interp.NullV(), err
		}
		if c.B() {
			return in.eval(fr, e.T)
		}
		return in.eval(fr, e.F)
	case *ir.ConvertExpr:
		x, err := in.eval(fr, e.X)
		if err != nil {
			return interp.NullV(), err
		}
		return convertValue(e.ToFloat, x), nil
	case *ir.HCallExpr:
		if in.opts.Hidden == nil {
			return interp.NullV(), &interp.RuntimeError{Msg: "H(...) call without hidden session"}
		}
		args := make([]interp.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := in.eval(fr, a)
			if err != nil {
				return interp.NullV(), err
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
					return interp.NullV(), err
				}
				if ov.Obj() == nil {
					return interp.NullV(), &interp.RuntimeError{Msg: "hidden-field access on null object"}
				}
				inst = ov.Obj().ID
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
	return interp.NullV(), &interp.RuntimeError{Msg: fmt.Sprintf("unknown expression %T", e)}
}
