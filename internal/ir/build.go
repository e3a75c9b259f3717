package ir

import (
	"fmt"
	"strconv"

	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/parser"
	"slicehide/internal/lang/types"
	"slicehide/internal/slab"
)

// Build lowers a type-checked AST program to IR.
func Build(prog *ast.Program, info *types.Info) *Program {
	b := &builder{
		info: info,
		prog: &Program{
			Classes: make(map[string]*Class),
			Funcs:   make(map[string]*Func),
			Heap:    &Var{Name: "$heap", Kind: VarHeap, Type: types.IntType},
		},
		elems: make(map[*Var]*Var),
	}
	for _, cl := range prog.Classes {
		ic := &Class{Name: cl.Name, Fields: b.varLists.Make(len(cl.Fields))}
		for i, fd := range cl.Fields {
			ic.Fields[i] = b.vars.New(Var{Name: fd.Name, Kind: VarField, Type: b.info.Resolve(fd.Type), Class: cl.Name})
		}
		b.prog.Classes[cl.Name] = ic
	}
	for _, g := range prog.Globals {
		gv := b.vars.New(Var{Name: g.Name, Kind: VarGlobal, Type: b.info.Resolve(g.Type)})
		b.globals = append(b.globals, gv)
		b.prog.Globals = append(b.prog.Globals, &Global{Var: gv})
	}
	// Global initializers may reference earlier globals.
	for i, g := range prog.Globals {
		if g.Init != nil {
			b.fn = &Func{Name: "$init"}
			b.prog.Globals[i].Init = b.expr(g.Init)
			b.fn = nil
		}
	}
	for _, f := range prog.Funcs {
		b.buildFunc(f, info.Funcs[f.Name], nil)
	}
	for _, cl := range prog.Classes {
		tc, ic := info.Classes[cl.Name], b.prog.Classes[cl.Name]
		for _, m := range cl.Methods {
			b.buildFunc(m, tc.Methods[m.Name], ic)
		}
	}
	return b.prog
}

// Compile parses, checks, and lowers MiniJ source in one step.
func Compile(src string) (*Program, error) {
	astProg, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(astProg)
	if err != nil {
		return nil, err
	}
	return Build(astProg, info), nil
}

type builder struct {
	info    *types.Info
	prog    *Program
	globals []*Var
	elems   map[*Var]*Var // base var -> elems pseudo-var

	fn *Func
	// class is the class whose method is being built, nil in a function.
	class *Class
	// methods maps the names of class's methods to their signatures.
	methods map[string]*types.FuncSig
	// scope holds the parameters, then the locals of every open block in
	// declaration order; a block truncates it back on close.
	scope []scoped
	// stmts holds the lowered statements of every open block, innermost
	// last; a block copies its own off the top once, when it is done.
	stmts []Stmt
	// locals is where the function being built collects its locals; it
	// copies them off once, when it is done.
	locals []*Var

	// The most frequent nodes, and the lists that hold them, come from
	// blocks that belong to this build.
	stmtLists slab.Of[Stmt]
	exprLists slab.Of[Expr]
	varLists  slab.Of[*Var]
	vars      slab.Of[Var]
	varRefs   slab.Of[VarRef]
	binaries  slab.Of[Binary]
	consts    slab.Of[Const]
	fields    slab.Of[FieldExpr]
	indexes   slab.Of[IndexExpr]
	thises    slab.Of[ThisExpr]
	targets   slab.Of[VarTarget]
	assigns   slab.Of[AssignStmt]
	ifs       slab.Of[IfStmt]
	whiles    slab.Of[WhileStmt]
	returns   slab.Of[ReturnStmt]
}

// scoped binds a source name to the variable it denotes.
type scoped struct {
	name string
	v    *Var
}

func (b *builder) declare(name string, v *Var) {
	b.scope = append(b.scope, scoped{name, v})
}

// lookup resolves a source name following the checker's rules: innermost
// scope first, then enclosing-class fields, then globals.
func (b *builder) lookup(name string) (*Var, bool) {
	for i := len(b.scope) - 1; i >= 0; i-- {
		if b.scope[i].name == name {
			return b.scope[i].v, true
		}
	}
	if b.class != nil {
		if fv := b.class.Field(name); fv != nil {
			return fv, true
		}
	}
	for _, g := range b.globals {
		if g.Name == name {
			return g, true
		}
	}
	return nil, false
}

// elemsVar returns the pseudo-variable for elements of the array held in
// base expression arr: base[*] if arr is a simple variable, $heap otherwise.
func (b *builder) elemsVar(arr Expr) *Var {
	vr, ok := arr.(*VarRef)
	if !ok {
		return b.prog.Heap
	}
	base := vr.Var
	if ev, ok := b.elems[base]; ok {
		return ev
	}
	var elemType types.Type = types.IntType
	if at, ok := base.Type.(*types.Array); ok {
		elemType = at.Elem
	}
	ev := &Var{Name: base.Name, Kind: VarElems, Type: elemType, Base: base}
	b.elems[base] = ev
	return ev
}

// buildFunc lowers the function or method decl of signature sig; class is
// the method's class, nil for a function.
func (b *builder) buildFunc(decl *ast.FuncDecl, sig *types.FuncSig, class *Class) {
	f := &Func{Name: decl.Name, Class: sig.Class, Result: sig.Result}
	b.fn, b.class, b.methods = f, class, nil
	if class != nil {
		b.methods = b.info.Classes[class.Name].Methods
	}
	b.scope = b.scope[:0]
	f.Params = b.varLists.Make(len(decl.Params))
	for i, p := range decl.Params {
		f.Params[i] = b.vars.New(Var{Name: p.Name, Kind: VarParam, Type: sig.Params[i]})
		b.declare(p.Name, f.Params[i])
	}
	f.Locals = b.locals[:0]
	f.Body = b.block(decl.Body.Stmts)
	b.locals = f.Locals
	f.Locals = b.varLists.Make(len(b.locals))
	copy(f.Locals, b.locals)
	b.prog.Funcs[sig.QName] = f
	b.prog.Order = append(b.prog.Order, sig.QName)
	b.fn, b.class, b.methods = nil, nil, nil
}

// addLocal registers a fresh local of the function being built. A name a
// parameter or an earlier local already has gets the first free suffix:
// x, x$1, x$2, ...
func (b *builder) addLocal(name string, t types.Type) *Var {
	unique := name
	for i := 1; b.fn.LookupVar(unique) != nil; i++ {
		unique = name + "$" + strconv.Itoa(i)
	}
	v := b.vars.New(Var{Name: unique, Kind: VarLocal, Type: t})
	b.fn.Locals = append(b.fn.Locals, v)
	return v
}

// block lowers the statements of one block, in a scope of their own.
func (b *builder) block(list []ast.Stmt) []Stmt {
	base := len(b.stmts)
	b.blockInto(list)
	return b.takeStmts(base)
}

// blockInto appends the lowered statements of one block to b.stmts, in a
// scope of their own.
func (b *builder) blockInto(list []ast.Stmt) {
	mark := len(b.scope)
	for _, s := range list {
		b.stmt(s)
	}
	b.scope = b.scope[:mark]
}

// takeStmts moves the statements lowered since b.stmts was base long into a
// list of their own.
func (b *builder) takeStmts(base int) []Stmt {
	out := b.stmtLists.Make(len(b.stmts) - base)
	copy(out, b.stmts[base:])
	b.stmts = b.stmts[:base]
	return out
}

// this returns the implicit receiver of the method being built.
func (b *builder) this() *ThisExpr { return b.thises.New(ThisExpr{Class: b.class.Name}) }

// zeroValue returns the implicit initial value for a declared variable.
func (b *builder) zeroValue(t types.Type) Expr {
	c := Const{Kind: ConstNull}
	if t, ok := t.(*types.Basic); ok {
		switch t.Kind {
		case ast.Int:
			c.Kind = ConstInt
		case ast.Float:
			c.Kind = ConstFloat
		case ast.Bool:
			c.Kind = ConstBool
		case ast.String:
			c.Kind = ConstString
		}
	}
	return b.consts.New(c)
}

// stmt appends the lowering of s to b.stmts.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		t := b.info.Resolve(s.Type)
		v := b.addLocal(s.Name, t)
		var init Expr
		if s.Init != nil {
			init = b.expr(s.Init)
		} else {
			init = b.zeroValue(t)
		}
		b.declare(s.Name, v)
		b.stmts = append(b.stmts, b.assigns.New(AssignStmt{stmtBase: b.fn.NewStmt(s.Pos()), Lhs: b.targets.New(VarTarget{Var: v}), Rhs: init}))
	case *ast.Assign:
		lhs := b.target(s.Lhs)
		rhs := b.expr(s.Rhs)
		b.stmts = append(b.stmts, b.assigns.New(AssignStmt{stmtBase: b.fn.NewStmt(s.Pos()), Lhs: lhs, Rhs: rhs}))
	case *ast.If:
		st := b.ifs.New(IfStmt{stmtBase: b.fn.NewStmt(s.Pos()), Cond: b.expr(s.Cond)})
		st.Then = b.block(s.Then.Stmts)
		if s.Else != nil {
			st.Else = b.block(s.Else.Stmts)
		}
		b.stmts = append(b.stmts, st)
	case *ast.While:
		st := b.whiles.New(WhileStmt{stmtBase: b.fn.NewStmt(s.Pos()), Cond: b.expr(s.Cond)})
		st.Body = b.block(s.Body.Stmts)
		b.stmts = append(b.stmts, st)
	case *ast.For:
		mark := len(b.scope)
		if s.Init != nil {
			b.stmt(s.Init)
		}
		var cond Expr
		if s.Cond != nil {
			cond = b.expr(s.Cond)
		} else {
			cond = b.consts.New(Const{Kind: ConstBool, B: true})
		}
		loop := b.whiles.New(WhileStmt{stmtBase: b.fn.NewStmt(s.Pos()), Cond: cond})
		loop.Body = b.block(s.Body.Stmts)
		if s.Post != nil {
			base := len(b.stmts)
			b.stmt(s.Post)
			loop.Post = b.takeStmts(base)
		}
		b.scope = b.scope[:mark]
		b.stmts = append(b.stmts, loop)
	case *ast.Return:
		st := b.returns.New(ReturnStmt{stmtBase: b.fn.NewStmt(s.Pos())})
		if s.Value != nil {
			st.Value = b.expr(s.Value)
		}
		b.stmts = append(b.stmts, st)
	case *ast.Break:
		b.stmts = append(b.stmts, &BreakStmt{stmtBase: b.fn.NewStmt(s.Pos())})
	case *ast.Continue:
		b.stmts = append(b.stmts, &ContinueStmt{stmtBase: b.fn.NewStmt(s.Pos())})
	case *ast.Print:
		st := &PrintStmt{stmtBase: b.fn.NewStmt(s.Pos()), Args: b.exprs(s.Args)}
		b.stmts = append(b.stmts, st)
	case *ast.ExprStmt:
		call, ok := b.expr(s.X).(*CallExpr)
		if !ok {
			panic(fmt.Sprintf("ir: expression statement is not a call at %s", s.Pos()))
		}
		b.stmts = append(b.stmts, &CallStmt{stmtBase: b.fn.NewStmt(s.Pos()), Call: call})
	case *ast.Block:
		b.blockInto(s.Stmts)
	default:
		panic(fmt.Sprintf("ir: unknown statement %T", s))
	}
}

// exprs lowers a list of expressions, left to right.
func (b *builder) exprs(list []ast.Expr) []Expr {
	out := b.exprLists.Make(len(list))
	for i, e := range list {
		out[i] = b.expr(e)
	}
	return out
}

// target lowers the left-hand side of an assignment, which lowers as the
// read of the same place would.
func (b *builder) target(e ast.Expr) Target {
	switch x := b.expr(e).(type) {
	case *VarRef:
		return b.targets.New(VarTarget{Var: x.Var})
	case *IndexExpr:
		return &IndexTarget{Arr: x.Arr, I: x.I, ElemsVar: x.ElemsVar}
	case *FieldExpr:
		return &FieldTarget{Obj: x.Obj, Field: x.Field, Class: x.Class, FieldVar: x.FieldVar}
	}
	panic(fmt.Sprintf("ir: invalid assignment target %T at %s", e, e.Pos()))
}

func (b *builder) fieldVar(class, field string) *Var {
	if cl := b.prog.Classes[class]; cl != nil {
		if fv := cl.Field(field); fv != nil {
			return fv
		}
	}
	return b.prog.Heap
}

func (b *builder) expr(e ast.Expr) Expr {
	switch e := e.(type) {
	case *ast.IntLit:
		return b.consts.New(Const{Kind: ConstInt, I: e.Value})
	case *ast.FloatLit:
		return b.consts.New(Const{Kind: ConstFloat, F: e.Value})
	case *ast.BoolLit:
		return b.consts.New(Const{Kind: ConstBool, B: e.Value})
	case *ast.StringLit:
		return b.consts.New(Const{Kind: ConstString, S: e.Value})
	case *ast.NullLit:
		return b.consts.New(Const{Kind: ConstNull})
	case *ast.Ident:
		v, ok := b.lookup(e.Name)
		if !ok {
			panic(fmt.Sprintf("ir: unresolved variable %s at %s", e.Name, e.Pos()))
		}
		if v.Kind == VarField {
			return b.fields.New(FieldExpr{Obj: b.this(), Field: v.Name, Class: v.Class, FieldVar: v})
		}
		return b.varRefs.New(VarRef{Var: v})
	case *ast.Unary:
		return &Unary{Op: e.Op, X: b.expr(e.X)}
	case *ast.Binary:
		return b.binaries.New(Binary{Op: e.Op, X: b.expr(e.X), Y: b.expr(e.Y)})
	case *ast.Index:
		arr := b.expr(e.Arr)
		return b.indexes.New(IndexExpr{Arr: arr, I: b.expr(e.I), ElemsVar: b.elemsVar(arr)})
	case *ast.FieldAccess:
		var cls string
		if cl := b.info.Receivers[e.Obj]; cl != nil {
			cls = cl.Name
		}
		return b.fields.New(FieldExpr{Obj: b.expr(e.Obj), Field: e.Name, Class: cls, FieldVar: b.fieldVar(cls, e.Name)})
	case *ast.Call:
		var callee string
		var recv Expr
		var result types.Type = types.VoidType
		// Sibling methods shadow top-level functions (matches the checker).
		if sig, ok := b.methods[e.Name]; ok {
			callee, result = sig.QName, sig.Result
			recv = b.this()
		} else if sig, ok := b.info.Funcs[e.Name]; ok {
			callee, result = sig.QName, sig.Result
		}
		if callee == "" {
			panic(fmt.Sprintf("ir: unresolved function %s at %s", e.Name, e.Pos()))
		}
		return &CallExpr{Callee: callee, Recv: recv, Args: b.exprs(e.Args), Result: result}
	case *ast.MethodCall:
		var sig *types.FuncSig
		if cl := b.info.Receivers[e.Recv]; cl != nil {
			sig = cl.Methods[e.Name]
		}
		if sig == nil {
			panic(fmt.Sprintf("ir: unresolved method %s at %s", e.Name, e.Pos()))
		}
		args := b.exprs(e.Args)
		return &CallExpr{Callee: sig.QName, Recv: b.expr(e.Recv), Args: args, Result: sig.Result}
	case *ast.NewObject:
		return &NewObjectExpr{Class: e.Name}
	case *ast.NewArray:
		return &NewArrayExpr{Elem: b.info.Resolve(e.Elem), Size: b.expr(e.Size)}
	case *ast.LenExpr:
		return &LenExpr{Arr: b.expr(e.Arr)}
	case *ast.Cond:
		return &CondExpr{C: b.expr(e.C), T: b.expr(e.T), F: b.expr(e.F)}
	case *ast.Convert:
		return &ConvertExpr{ToFloat: e.To == ast.Float, X: b.expr(e.X)}
	}
	panic(fmt.Sprintf("ir: unknown expression %T", e))
}
