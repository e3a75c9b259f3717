package vm

import (
	"sort"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
)

// machineCompiler is the compile-time state of one Machine: the tables its
// code indexes and the maps that deduplicate them.
type machineCompiler struct {
	m       *Machine
	prog    *ir.Program
	pool    *pool
	globals *slots
	nameIdx map[string]uint32
	classes map[string]uint32
}

// compileMachine lowers every function of prog, and the global
// initializers, into m. Everything the walker looks up per step is resolved
// here: callees, split-function flags, locals to registers, globals to
// slots, operators to opcodes.
func compileMachine(m *Machine, prog *ir.Program) {
	mc := &machineCompiler{
		m: m, prog: prog, pool: newPool(), globals: newSlots(),
		nameIdx: make(map[string]uint32), classes: make(map[string]uint32),
	}
	for _, g := range prog.Globals {
		mc.globals.add(g.Var)
	}

	// Shells first, so call sites resolve whatever the order of definition.
	names := make([]string, 0, len(prog.Funcs))
	m.funcs = make(map[string]*funcCode, len(prog.Funcs))
	for qn, f := range prog.Funcs {
		names = append(names, qn)
		m.funcs[qn] = &funcCode{name: f.QName(), nparams: len(f.Params), split: m.opts.SplitFuncs[f.QName()]}
	}
	sort.Strings(names)
	for _, qn := range names {
		f := prog.Funcs[qn]
		mc.compileFunc(m.funcs[qn], f.Params, f.Locals, f.Body, nil)
	}

	// The initializers run as the body of a pseudo-function: each global
	// gets its typed zero or its initializer's value, in declaration order
	// (a later global reads as the zero Value until its turn).
	m.globalInit = &funcCode{name: "$init"}
	mc.compileFunc(m.globalInit, nil, nil, nil, prog.Globals)

	m.fails = mc.pool.fails
	m.sp[spcConst] = mc.pool.consts
	m.sp[spcGlobal] = make([]interp.Value, len(mc.globals.Slots))
}

// compileFunc lowers one body into f: statements for a function, global
// initializers for the init pseudo-function.
func (mc *machineCompiler) compileFunc(f *funcCode, params, locals []*ir.Var, body []ir.Stmt, inits []*ir.Global) {
	c := &compiler{pool: mc.pool, mc: mc, fn: f, regs: make(map[*ir.Var]int32), parent: -1}
	for _, v := range params {
		c.regs[v] = int32(len(c.regs))
	}
	// Window layout: params, this, locals. A variable the body names but
	// the function does not declare still gets a register, as it gets a
	// map entry in the walker.
	next := int32(f.nparams + 1)
	local := func(v *ir.Var) {
		if _, ok := c.regs[v]; !ok && v.Kind != ir.VarGlobal {
			c.regs[v] = next
			next++
		}
	}
	for _, v := range locals {
		local(v)
	}
	refs := func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if vr, ok := x.(*ir.VarRef); ok {
				local(vr.Var)
			}
		})
	}
	ir.WalkStmts(body, func(st ir.Stmt) bool {
		if a, ok := st.(*ir.AssignStmt); ok {
			if vt, ok := a.Lhs.(*ir.VarTarget); ok {
				local(vt.Var)
			}
		}
		ir.StmtExprs(st, refs)
		return true
	})
	for _, g := range inits {
		refs(g.Init)
	}
	f.nlocals = int(next) - f.nparams - 1
	c.tempBase = next

	c.stmts(body, false)
	for _, g := range inits {
		c.curTemp = 0
		c.pinGlobals = g.Init != nil && ir.HasCall(g.Init)
		slot := opd(spcGlobal, mc.globals.add(g.Var))
		if g.Init == nil {
			c.emit(Instr{Op: OpMov, Dst: slot, A: c.constOpd(zeroOfKind(ir.ZeroKindOf(g.Var)))})
		} else {
			c.exprTo(slot, g.Init)
		}
	}
	// Falling off the end — or a break/continue outside any loop — returns
	// null.
	for _, pc := range c.endJumps {
		c.patch(pc, len(c.code))
	}
	c.emit(Instr{Op: OpRetNil})
	f.code = c.code
	f.nregs = int(c.tempBase + c.nTemps)
}

// name interns a field name.
func (mc *machineCompiler) name(s string) uint32 {
	i, ok := mc.nameIdx[s]
	if !ok {
		i = uint32(len(mc.m.names))
		mc.m.names = append(mc.m.names, s)
		mc.nameIdx[s] = i
	}
	return i
}

// class interns a class's allocation template: its fields at their typed
// zeros (none for a class the program does not declare).
func (mc *machineCompiler) class(name string) uint32 {
	i, ok := mc.classes[name]
	if !ok {
		info := classInfo{name: name}
		if cl := mc.prog.Classes[name]; cl != nil {
			for _, fv := range cl.Fields {
				info.fields = append(info.fields, fieldInit{name: fv.Name, zero: zeroOfKind(ir.ZeroKindOf(fv))})
			}
		}
		i = uint32(len(mc.m.classes))
		mc.m.classes = append(mc.m.classes, info)
		mc.classes[name] = i
	}
	return i
}

// zeroOfKind returns the open side's typed zero (a string starts empty;
// the hidden stores' historical convention is ZeroValue's).
func zeroOfKind(k ir.ZeroKind) interp.Value {
	switch k {
	case ir.ZeroInt:
		return interp.IntV(0)
	case ir.ZeroFloat:
		return interp.FloatV(0)
	case ir.ZeroBool:
		return interp.BoolV(false)
	case ir.ZeroString:
		return interp.StrV("")
	}
	return interp.NullV()
}
