package vm

import (
	"errors"
	"fmt"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
)

// constKey identifies a constant-pool entry; Value itself holds reference
// fields, so the dedup key is the scalar payload.
type constKey struct {
	kind interp.ValueKind
	i    int64
	f    float64
	b    bool
	s    string
}

// pool holds the constants and prebuilt errors code addresses by index:
// one pool per fragment, one per machine.
type pool struct {
	consts   []interp.Value
	constIdx map[constKey]uint32
	fails    []error
	failIdx  map[string]uint32
}

func newPool() *pool {
	return &pool{constIdx: make(map[constKey]uint32), failIdx: make(map[string]uint32)}
}

// compiler lowers one statement list — a fragment body or a function body
// — to three-address code. The lowering is the same for both targets; they
// differ in what a variable resolves to (store slots against window
// registers) and in which nodes exist (fragments never touch aggregates,
// make calls, or perform I/O, and a fragment that does compiles to the
// tree-walking executor's error).
//
// Temporaries are scratch within a statement (nothing lives across
// statements except through stores), so the temp counter resets per
// statement and nTemps is the high-water mark.
type compiler struct {
	*pool

	// Fragment target.
	h    *hidden
	comp *Comp
	act  *slots
	args []*ir.Var

	// Whole-program target; mc is nil when compiling a fragment.
	mc   *machineCompiler
	fn   *funcCode
	regs map[*ir.Var]int32
	// parent is the statement whose body is being lowered (-1 at function
	// level), for stmtInfo.
	parent int32
	// pinGlobals is set while lowering a statement that contains a call:
	// the callee may assign a global, so a global read is copied to a temp
	// where the walker would have read it, not addressed in place later.
	pinGlobals bool

	code []Instr
	// tempBase is the window register the temps start at (0 in a fragment,
	// whose temps are a space of their own).
	tempBase, curTemp, nTemps int32
	// pending counts statements reached since the last OpStep; it is
	// flushed before any control transfer so loop iterations accumulate
	// steps and the step limit fires like the tree-walker's.
	pending uint32

	loops    []*loopCtx
	endJumps []int
}

type loopCtx struct {
	breaks, bodyConts, postConts []int
	inPost                       bool
}

func (c *compiler) emit(in Instr) int {
	c.code = append(c.code, in)
	return len(c.code) - 1
}

// patch sets a jump's relative offset once its target is known.
func (c *compiler) patch(pc, target int) {
	c.code[pc].Dst = uint32(int32(target - pc))
}

// flush charges the pending statements. In a function the OpStep also
// names the last statement it charges, so a step-limit abort can say which
// statement of the run went over.
func (c *compiler) flush() {
	if c.pending == 0 {
		return
	}
	in := Instr{Op: OpStep, Dst: c.pending}
	if c.fn != nil {
		in.A = uint32(len(c.fn.stmts) - 1)
	}
	c.emit(in)
	c.pending = 0
}

// allocTemps reserves n consecutive temps and returns the first's index
// in the temp space.
func (c *compiler) allocTemps(n int) int32 {
	t := c.tempBase + c.curTemp
	c.curTemp += int32(n)
	if c.curTemp > c.nTemps {
		c.nTemps = c.curTemp
	}
	return t
}

func (c *compiler) allocTemp() uint32 { return opd(spcTemp, c.allocTemps(1)) }

func (c *compiler) constOpd(v interp.Value) uint32 {
	key := constKey{kind: v.Kind, i: intPart(v), f: v.F(), b: v.B(), s: v.S()}
	if o, ok := c.constIdx[key]; ok {
		return o
	}
	o := opd(spcConst, int32(len(c.consts)))
	c.consts = append(c.consts, v)
	c.constIdx[key] = o
	return o
}

// fail emits an instruction raising a prebuilt error with the given
// message — a plain error in a fragment, a RuntimeError in a function.
// Code the caller emits after it is unreachable.
func (c *compiler) fail(msg string) {
	idx, ok := c.failIdx[msg]
	if !ok {
		idx = uint32(len(c.fails))
		if c.mc != nil {
			c.fails = append(c.fails, &interp.RuntimeError{Msg: msg})
		} else {
			c.fails = append(c.fails, errors.New(msg))
		}
		c.failIdx[msg] = idx
	}
	c.emit(Instr{Op: OpFail, Dst: idx})
}

// readOpd resolves a variable read. In a function a variable is a global
// slot or a window register. In a fragment resolution mirrors the
// tree-walker's order: argument bindings first (by identity, in ArgVars
// order — they shadow stores even after the variable is assigned), then
// the globals store for global variables, the per-object field store for
// fields of class-owned components (missing fields read as their typed
// zero, like the zero-initialized field stores), and the activation store
// otherwise. Unknown variables compile to the tree-walker's error.
func (c *compiler) readOpd(v *ir.Var) uint32 {
	if c.mc != nil {
		if v.Kind != ir.VarGlobal {
			return c.reg(v)
		}
		g := opd(spcGlobal, c.mc.globals.add(v))
		if !c.pinGlobals {
			return g
		}
		t := c.allocTemp()
		c.emit(Instr{Op: OpMov, Dst: t, A: g})
		return t
	}
	for i, av := range c.args {
		if av == v {
			return opd(spcArg, int32(i))
		}
	}
	if v.Kind == ir.VarGlobal {
		if s, ok := c.h.globals.slot(v); ok {
			return opd(spcGlobal, s)
		}
		return c.unknownVar(v)
	}
	if v.Kind == ir.VarField && c.comp.Class != "" {
		if s, ok := c.h.fieldSlots(c.comp.Class).slot(v); ok {
			return opd(spcField, s)
		}
		return c.constOpd(ZeroValue(v))
	}
	if s, ok := c.act.slot(v); ok {
		return opd(spcAct, s)
	}
	return c.unknownVar(v)
}

// reg is the window register of a function's variable; compileFunc gave
// every variable the body names one before lowering it.
func (c *compiler) reg(v *ir.Var) uint32 {
	r, ok := c.regs[v]
	if !ok {
		panic("vm: no register for variable " + v.String() + " in " + c.fn.name)
	}
	return opd(spcTemp, r)
}

func (c *compiler) unknownVar(v *ir.Var) uint32 {
	c.fail("hrt: fragment reads unknown variable " + v.String())
	// The operand is never loaded (OpFail returns), but keep it valid.
	return c.constOpd(interp.IntV(0))
}

// writeOpd resolves an assignment target. A fragment's pre-scan already
// added the slot, so add is a lookup there.
func (c *compiler) writeOpd(v *ir.Var) uint32 {
	switch {
	case c.mc != nil && v.Kind == ir.VarGlobal:
		return opd(spcGlobal, c.mc.globals.add(v))
	case c.mc != nil:
		return c.reg(v)
	case v.Kind == ir.VarGlobal:
		return opd(spcGlobal, c.h.globals.add(v))
	case v.Kind == ir.VarField && c.comp.Class != "":
		return opd(spcField, c.h.fieldSlots(c.comp.Class).add(v))
	default:
		return opd(spcAct, c.act.add(v))
	}
}

// calls reports whether st's own expressions (not its sub-statements)
// contain a call, and whether they contain a hidden call.
func calls(st ir.Stmt) (call, hidden bool) {
	ir.StmtExprs(st, func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			switch x.(type) {
			case *ir.CallExpr:
				call = true
			case *ir.HCallExpr:
				hidden = true
			}
		})
	})
	return call, hidden
}

// begin opens a statement's code and decides when its step is charged. A
// simple assignment joins the pending run and is charged after it ran —
// by then it can only have failed, which the error path accounts for, or
// changed variables, which nobody observes before the charge. Everything
// else is charged first: control flow so that loops count iterations,
// and, in a function, any statement with an externally visible effect
// (print, call, hidden call) so that a step-limit abort never lets one
// through that the walker, which counts every statement before running
// it, would have stopped. In a function begin also records where the
// statement's code starts; it returns the statement's index (-1 in a
// fragment).
func (c *compiler) begin(st ir.Stmt) int32 {
	_, simple := st.(*ir.AssignStmt)
	at := int32(-1)
	if c.fn != nil {
		at = int32(len(c.fn.stmts))
		c.fn.stmts = append(c.fn.stmts, stmtInfo{pc: int32(len(c.code)), stmt: st, parent: c.parent})
		call, hidden := calls(st)
		c.pinGlobals = call
		simple = simple && !call && !hidden
	}
	if !simple {
		c.flush()
	}
	if at >= 0 {
		c.fn.stmts[at].uncharged = int32(c.pending)
	}
	return at
}

// body lowers a nested statement list of the statement at.
func (c *compiler) body(at int32, list []ir.Stmt, keep bool) {
	outer := c.parent
	c.parent = at
	c.stmts(list, keep)
	c.parent = outer
}

// stmts lowers a statement list; unless keep is set, it charges the list's
// trailing run of simple statements at its end.
func (c *compiler) stmts(list []ir.Stmt, keep bool) {
	for _, st := range list {
		c.pending++
		c.curTemp = 0
		at := c.begin(st)
		switch st := st.(type) {
		case *ir.AssignStmt:
			c.assign(st)
		case *ir.IfStmt:
			jf := c.jumpUnless(st.Cond)
			c.body(at, st.Then, false)
			if len(st.Else) > 0 {
				j := c.emit(Instr{Op: OpJump})
				c.patch(jf, len(c.code))
				c.body(at, st.Else, false)
				c.patch(j, len(c.code))
			} else {
				c.patch(jf, len(c.code))
			}
		case *ir.WhileStmt:
			loopStart := len(c.code)
			jf := c.jumpUnless(st.Cond)
			lc := &loopCtx{}
			c.loops = append(c.loops, lc)
			// In a function the back-edge charges the iteration together
			// with the run of simple statements that ends the body or the
			// post block, unless a continue jumps into that run.
			c.body(at, st.Body, c.fn != nil)
			if len(lc.bodyConts) > 0 {
				c.flush()
			}
			// continue in the body runs the post block; continue in the
			// post block skips straight to the iteration step (the
			// tree-walker does not check for it after the post block).
			for _, pc := range lc.bodyConts {
				c.patch(pc, len(c.code))
			}
			lc.inPost = true
			c.body(at, st.Post, c.fn != nil)
			if len(lc.postConts) > 0 {
				c.flush()
			}
			stepPC := len(c.code)
			if c.fn != nil {
				c.patch(c.emit(Instr{Op: OpLoop, A: uint32(at), B: c.pending + 1}), loopStart)
				c.pending = 0
			} else {
				c.emit(Instr{Op: OpStep, Dst: 1})
				c.patch(c.emit(Instr{Op: OpJump}), loopStart)
			}
			for _, pc := range lc.postConts {
				c.patch(pc, stepPC)
			}
			c.patch(jf, len(c.code))
			for _, pc := range lc.breaks {
				c.patch(pc, len(c.code))
			}
			c.loops = c.loops[:len(c.loops)-1]
		case *ir.ReturnStmt:
			if st.Value == nil {
				c.emit(Instr{Op: OpRetNil})
				continue
			}
			v := c.expr(st.Value)
			c.emit(Instr{Op: OpRet, A: v})
		case *ir.BreakStmt:
			pc := c.emit(Instr{Op: OpJump})
			if len(c.loops) == 0 {
				// Outside a loop the signal unwinds to the top, ending
				// the body with the "any" value.
				c.endJumps = append(c.endJumps, pc)
			} else {
				lc := c.loops[len(c.loops)-1]
				lc.breaks = append(lc.breaks, pc)
			}
		case *ir.ContinueStmt:
			pc := c.emit(Instr{Op: OpJump})
			if len(c.loops) == 0 {
				c.endJumps = append(c.endJumps, pc)
			} else if lc := c.loops[len(c.loops)-1]; lc.inPost {
				lc.postConts = append(lc.postConts, pc)
			} else {
				lc.bodyConts = append(lc.bodyConts, pc)
			}
		default:
			c.effect(st)
		}
	}
	if !keep {
		c.flush()
	}
}

// effect lowers the statements only a function can hold: output, calls
// and hidden calls. A fragment that contains one compiles to the
// tree-walking executor's error.
func (c *compiler) effect(st ir.Stmt) {
	if c.mc == nil {
		c.fail(fmt.Sprintf("hrt: fragment contains unsupported statement %T", st))
		return
	}
	switch st := st.(type) {
	case *ir.PrintStmt:
		// Each argument is rendered as soon as it is evaluated: a later
		// argument's call may change an array an earlier one named.
		parts := c.allocTemps(len(st.Args))
		for i, a := range st.Args {
			c.emit(Instr{Op: OpStr, Dst: opd(spcTemp, parts+int32(i)), A: c.expr(a)})
		}
		c.emit(Instr{Op: OpPrint, A: uint32(parts), B: uint32(len(st.Args))})
	case *ir.CallStmt:
		c.exprTo(c.allocTemp(), st.Call)
	case *ir.HCallStmt:
		c.hcall(c.allocTemp(), st.Call, true)
	default:
		c.fail(fmt.Sprintf("unknown statement %T", st))
	}
}

// assign lowers an assignment. The right-hand side is evaluated first, then
// the target's operands, then the target is checked — so errors surface in
// the tree-walker's order.
func (c *compiler) assign(st *ir.AssignStmt) {
	switch t := st.Lhs.(type) {
	case *ir.VarTarget:
		c.exprTo(c.writeOpd(t.Var), st.Rhs)
		return
	case *ir.IndexTarget:
		if c.mc != nil {
			v := c.expr(st.Rhs)
			arr := c.expr(t.Arr)
			c.emit(Instr{Op: OpSetIndex, Dst: v, A: arr, B: c.expr(t.I)})
			return
		}
	case *ir.FieldTarget:
		if c.mc != nil {
			v := c.expr(st.Rhs)
			c.emit(Instr{Op: OpSetField, Dst: v, A: c.expr(t.Obj), B: c.mc.name(t.Field)})
			return
		}
	}
	c.exprTo(c.allocTemp(), st.Rhs)
	if c.mc != nil {
		c.fail(fmt.Sprintf("unknown target %T", st.Lhs))
		return
	}
	c.fail("hrt: fragment assigns to non-variable target")
}

// jumpUnless emits a jump taken unless cond is true and returns its pc for
// patching. In a function a comparison fuses with the jump; fragment code
// keeps the two-instruction form, because the hash of fragment bytecode is
// what recovery checks journals and snapshots against.
func (c *compiler) jumpUnless(cond ir.Expr) int {
	if b, ok := cond.(*ir.Binary); ok && c.mc != nil {
		if oc := binOpcode(ir.BinOpOf(b.Op)); oc >= OpEq && oc <= OpGeq {
			x := c.expr(b.X)
			return c.emit(Instr{Op: oc - OpEq + OpJumpNEq, A: x, B: c.expr(b.Y)})
		}
	}
	return c.emit(Instr{Op: OpJumpF, A: c.expr(cond)})
}

// expr compiles e and returns the operand holding its value: a direct
// slot/constant for leaves, a fresh temp otherwise.
func (c *compiler) expr(e ir.Expr) uint32 {
	switch e := e.(type) {
	case *ir.Const:
		switch e.Kind {
		case ir.ConstInt, ir.ConstFloat, ir.ConstBool, ir.ConstString, ir.ConstNull:
			return c.constOpd(constValue(e))
		}
		return c.unsupported(e)
	case *ir.VarRef:
		return c.readOpd(e.Var)
	}
	t := c.allocTemp()
	c.exprTo(t, e)
	return t
}

// exprTo compiles e into dst, fusing the final operation's destination so
// assignments need no extra move. Every shape writes dst exactly once, as
// its last action, so an error inside e leaves dst unwritten.
func (c *compiler) exprTo(dst uint32, e ir.Expr) {
	switch e := e.(type) {
	case *ir.Const, *ir.VarRef:
		c.emit(Instr{Op: OpMov, Dst: dst, A: c.expr(e)})
		return
	case *ir.Unary:
		x := c.expr(e.X)
		switch ir.UnOpOf(e.Op) {
		case ir.UnNeg:
			c.emit(Instr{Op: OpNeg, Dst: dst, A: x})
		case ir.UnNot:
			c.emit(Instr{Op: OpNot, Dst: dst, A: x})
		default:
			// The tree-walker evaluates the operand, finds no matching
			// operator, and reports the node unsupported.
			c.failUnsupported(e)
		}
		return
	case *ir.Binary:
		op := ir.BinOpOf(e.Op)
		if op == ir.BinAnd || op == ir.BinOr {
			c.shortCircuit(dst, op, e)
			return
		}
		oc := binOpcode(op)
		if oc == OpNop {
			c.failUnsupported(e)
			return
		}
		x := c.expr(e.X)
		y := c.expr(e.Y)
		c.emit(Instr{Op: oc, Dst: dst, A: x, B: y})
		return
	case *ir.CondExpr:
		jf := c.jumpUnless(e.C)
		c.exprTo(dst, e.T)
		j := c.emit(Instr{Op: OpJump})
		c.patch(jf, len(c.code))
		c.exprTo(dst, e.F)
		c.patch(j, len(c.code))
		return
	case *ir.ConvertExpr:
		x := c.expr(e.X)
		oc := OpConvI
		if e.ToFloat {
			oc = OpConvF
		}
		c.emit(Instr{Op: oc, Dst: dst, A: x})
		return
	}
	if c.mc == nil {
		c.unsupported(e)
		return
	}
	switch e := e.(type) {
	case *ir.IndexExpr:
		arr := c.expr(e.Arr)
		c.emit(Instr{Op: OpIndex, Dst: dst, A: arr, B: c.expr(e.I)})
	case *ir.FieldExpr:
		c.emit(Instr{Op: OpGetField, Dst: dst, A: c.expr(e.Obj), B: c.mc.name(e.Field)})
	case *ir.CallExpr:
		c.call(dst, e)
	case *ir.NewObjectExpr:
		c.emit(Instr{Op: OpNewObj, Dst: dst, A: c.mc.class(e.Class)})
	case *ir.NewArrayExpr:
		size := c.expr(e.Size)
		zero := c.constOpd(zeroOfKind(ir.ZeroKindOfType(e.Elem)))
		c.emit(Instr{Op: OpNewArr, Dst: dst, A: size, B: zero})
	case *ir.LenExpr:
		c.emit(Instr{Op: OpLen, Dst: dst, A: c.expr(e.Arr)})
	case *ir.ThisExpr:
		c.emit(Instr{Op: OpThis, Dst: dst, A: opd(spcTemp, int32(c.fn.nparams))})
	case *ir.HCallExpr:
		c.hcall(dst, e, false)
	default:
		c.unsupported(e)
	}
}

// call lowers a call: arguments, then the receiver, are evaluated straight
// into the temps that become the callee's first registers.
func (c *compiler) call(dst uint32, e *ir.CallExpr) {
	window := c.allocTemps(len(e.Args) + 1)
	for i, a := range e.Args {
		c.exprTo(opd(spcTemp, window+int32(i)), a)
	}
	if e.Recv != nil {
		c.exprTo(opd(spcTemp, window+int32(len(e.Args))), e.Recv)
	}
	site := callSite{fn: c.mc.m.funcs[e.Callee], nargs: len(e.Args), recv: e.Recv != nil}
	switch {
	case site.fn == nil:
		site.err = &interp.RuntimeError{Msg: "undefined function " + e.Callee}
	case site.nargs != site.fn.nparams:
		site.err = argCountErr(site.fn.name, site.nargs, site.fn.nparams)
	}
	c.mc.m.calls = append(c.mc.m.calls, site)
	c.emit(Instr{Op: OpCall, Dst: dst, A: uint32(len(c.mc.m.calls) - 1), B: uint32(window)})
}

// hcall lowers a hidden call. In statement position a call the splitter
// marked NoReply goes one-way when the session is pipelined: its value is
// discarded and it leaks nothing, so the open side keeps running while the
// update is in flight.
func (c *compiler) hcall(dst uint32, e *ir.HCallExpr, stmt bool) {
	m := c.mc.m
	oneWay := stmt && e.NoReply && m.async != nil
	if m.opts.Hidden == nil {
		c.fail("H(...) call without hidden session")
		return
	}
	site := hcallSite{
		comp: e.Component, frag: e.FragID,
		argBase: c.allocTemps(len(e.Args)), nargs: int32(len(e.Args)),
		obj: e.Component != "" && e.Obj != nil, oneWay: oneWay,
	}
	for i, a := range e.Args {
		c.exprTo(opd(spcTemp, site.argBase+int32(i)), a)
	}
	obj := dst // any valid operand; read only when site.obj
	if site.obj {
		obj = c.expr(e.Obj)
	}
	m.hcalls = append(m.hcalls, site)
	c.emit(Instr{Op: OpHCall, Dst: dst, A: uint32(len(m.hcalls) - 1), B: obj})
}

// shortCircuit compiles && and ||, preserving the tree-walker's reads: the
// left operand short-circuits on its B(), and the result is the
// normalized bool of whichever operand decided it.
func (c *compiler) shortCircuit(dst uint32, op ir.BinOp, e *ir.Binary) {
	x := c.expr(e.X)
	jop := OpJumpRawF
	if op == ir.BinOr {
		jop = OpJumpRawT
	}
	jshort := c.emit(Instr{Op: jop, A: x})
	y := c.expr(e.Y)
	c.emit(Instr{Op: OpToBool, Dst: dst, A: y})
	jend := c.emit(Instr{Op: OpJump})
	c.patch(jshort, len(c.code))
	c.emit(Instr{Op: OpMov, Dst: dst, A: c.constOpd(interp.BoolV(op == ir.BinOr))})
	c.patch(jend, len(c.code))
}

func (c *compiler) failUnsupported(e ir.Expr) {
	if c.mc != nil {
		c.fail(fmt.Sprintf("unknown expression %T", e))
	} else {
		c.fail(fmt.Sprintf("hrt: fragment contains unsupported expression %T", e))
	}
}

// unsupported fails like failUnsupported where the caller needs an operand
// back; it is never loaded (OpFail returns), but is kept valid.
func (c *compiler) unsupported(e ir.Expr) uint32 {
	c.failUnsupported(e)
	return c.constOpd(interp.IntV(0))
}

func binOpcode(op ir.BinOp) Opcode {
	switch op {
	case ir.BinAdd:
		return OpAdd
	case ir.BinSub:
		return OpSub
	case ir.BinMul:
		return OpMul
	case ir.BinDiv:
		return OpDiv
	case ir.BinMod:
		return OpMod
	case ir.BinEq:
		return OpEq
	case ir.BinNeq:
		return OpNeq
	case ir.BinLt:
		return OpLt
	case ir.BinLeq:
		return OpLeq
	case ir.BinGt:
		return OpGt
	case ir.BinGeq:
		return OpGeq
	}
	return OpNop
}
