package ir

import (
	"fmt"

	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/parser"
	"slicehide/internal/lang/types"
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
		elems:  make(map[*Var]*Var),
		arrays: make(map[types.Type]*types.Array),
	}
	for _, cl := range prog.Classes {
		ic := &Class{Name: cl.Name}
		for _, fd := range cl.Fields {
			ic.Fields = append(ic.Fields, &Var{
				Name:  fd.Name,
				Kind:  VarField,
				Type:  b.resolveType(fd.Type),
				Class: cl.Name,
			})
		}
		b.prog.Classes[cl.Name] = ic
	}
	for _, g := range prog.Globals {
		gv := &Var{Name: g.Name, Kind: VarGlobal, Type: b.resolveType(g.Type)}
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
		b.buildFunc(f, "")
	}
	for _, cl := range prog.Classes {
		for _, m := range cl.Methods {
			b.buildFunc(m, cl.Name)
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

// MustCompile is Compile panicking on error; for tests and embedded corpora.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

type builder struct {
	info    *types.Info
	prog    *Program
	globals []*Var
	elems   map[*Var]*Var               // base var -> elems pseudo-var
	arrays  map[types.Type]*types.Array // the one Array of each element type

	fn       *Func
	curClass string
	// scope holds the parameters, then the locals of every open block in
	// declaration order; a block truncates it back on close.
	scope []scoped
}

// scoped binds a source name to the variable it denotes.
type scoped struct {
	name string
	v    *Var
}

func (b *builder) resolveType(t ast.Type) types.Type {
	switch t := t.(type) {
	case *ast.BasicType:
		switch t.Kind {
		case ast.Int:
			return types.IntType
		case ast.Float:
			return types.FloatType
		case ast.Bool:
			return types.BoolType
		case ast.String:
			return types.StringType
		case ast.Void:
			return types.VoidType
		}
	case *ast.ArrayType:
		elem := b.resolveType(t.Elem)
		a := b.arrays[elem]
		if a == nil {
			a = &types.Array{Elem: elem}
			b.arrays[elem] = a
		}
		return a
	case *ast.ClassType:
		if cl, ok := b.info.Classes[t.Name]; ok {
			return cl
		}
	}
	return types.IntType
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
	if b.curClass != "" {
		if cl := b.prog.Classes[b.curClass]; cl != nil {
			if fv := cl.Field(name); fv != nil {
				return fv, true
			}
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

func (b *builder) buildFunc(decl *ast.FuncDecl, class string) {
	f := &Func{Name: decl.Name, Class: class}
	b.fn = f
	b.curClass = class
	sig := b.info.Funcs[f.QName()]
	f.Result = sig.Result
	b.scope = b.scope[:0]
	for i, p := range decl.Params {
		b.declare(p.Name, f.AddParam(p.Name, sig.Params[i]))
	}
	f.Body = b.block(decl.Body.Stmts)
	b.prog.Funcs[f.QName()] = f
	b.prog.Order = append(b.prog.Order, f.QName())
	b.fn = nil
	b.curClass = ""
}

// block lowers the statements of one block, in a scope of their own.
func (b *builder) block(list []ast.Stmt) []Stmt {
	out := b.blockInto(make([]Stmt, 0, len(list)), list)
	if len(out) == 0 {
		return nil
	}
	return out
}

// blockInto appends the lowered statements of one block to out, in a scope
// of their own.
func (b *builder) blockInto(out []Stmt, list []ast.Stmt) []Stmt {
	mark := len(b.scope)
	for _, s := range list {
		out = b.stmt(out, s)
	}
	b.scope = b.scope[:mark]
	return out
}

// zeroValue returns the implicit initial value for a declared variable.
func zeroValue(t types.Type) Expr {
	switch t := t.(type) {
	case *types.Basic:
		switch t.Kind {
		case ast.Int:
			return Int(0)
		case ast.Float:
			return Float(0)
		case ast.Bool:
			return Bool(false)
		case ast.String:
			return Str("")
		}
	}
	return Null()
}

// stmt appends the lowering of s to out.
func (b *builder) stmt(out []Stmt, s ast.Stmt) []Stmt {
	switch s := s.(type) {
	case *ast.VarDecl:
		t := b.resolveType(s.Type)
		v := b.fn.AddLocal(s.Name, t)
		init := zeroValue(t)
		if s.Init != nil {
			init = b.expr(s.Init)
		}
		b.declare(s.Name, v)
		return append(out, &AssignStmt{stmtBase: b.fn.NewStmt(s.Pos()), Lhs: &VarTarget{Var: v}, Rhs: init})
	case *ast.Assign:
		lhs := b.target(s.Lhs)
		rhs := b.expr(s.Rhs)
		return append(out, &AssignStmt{stmtBase: b.fn.NewStmt(s.Pos()), Lhs: lhs, Rhs: rhs})
	case *ast.If:
		st := &IfStmt{stmtBase: b.fn.NewStmt(s.Pos()), Cond: b.expr(s.Cond)}
		st.Then = b.block(s.Then.Stmts)
		if s.Else != nil {
			st.Else = b.block(s.Else.Stmts)
		}
		return append(out, st)
	case *ast.While:
		st := &WhileStmt{stmtBase: b.fn.NewStmt(s.Pos()), Cond: b.expr(s.Cond)}
		st.Body = b.block(s.Body.Stmts)
		return append(out, st)
	case *ast.For:
		mark := len(b.scope)
		if s.Init != nil {
			out = b.stmt(out, s.Init)
		}
		var cond Expr = Bool(true)
		if s.Cond != nil {
			cond = b.expr(s.Cond)
		}
		loop := &WhileStmt{stmtBase: b.fn.NewStmt(s.Pos()), Cond: cond}
		loop.Body = b.block(s.Body.Stmts)
		if s.Post != nil {
			loop.Post = b.stmt(nil, s.Post)
		}
		b.scope = b.scope[:mark]
		return append(out, loop)
	case *ast.Return:
		st := &ReturnStmt{stmtBase: b.fn.NewStmt(s.Pos())}
		if s.Value != nil {
			st.Value = b.expr(s.Value)
		}
		return append(out, st)
	case *ast.Break:
		return append(out, &BreakStmt{stmtBase: b.fn.NewStmt(s.Pos())})
	case *ast.Continue:
		return append(out, &ContinueStmt{stmtBase: b.fn.NewStmt(s.Pos())})
	case *ast.Print:
		st := &PrintStmt{stmtBase: b.fn.NewStmt(s.Pos())}
		for _, a := range s.Args {
			st.Args = append(st.Args, b.expr(a))
		}
		return append(out, st)
	case *ast.ExprStmt:
		call, ok := b.expr(s.X).(*CallExpr)
		if !ok {
			panic(fmt.Sprintf("ir: expression statement is not a call at %s", s.Pos()))
		}
		return append(out, &CallStmt{stmtBase: b.fn.NewStmt(s.Pos()), Call: call})
	case *ast.Block:
		return b.blockInto(out, s.Stmts)
	}
	panic(fmt.Sprintf("ir: unknown statement %T", s))
}

func (b *builder) target(e ast.Expr) Target {
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := b.lookup(e.Name)
		if !ok {
			panic(fmt.Sprintf("ir: unresolved variable %s at %s", e.Name, e.Pos()))
		}
		if v.Kind == VarField {
			return &FieldTarget{Obj: &ThisExpr{Class: b.curClass}, Field: v.Name, Class: v.Class, FieldVar: v}
		}
		return &VarTarget{Var: v}
	case *ast.Index:
		arr := b.expr(e.Arr)
		return &IndexTarget{Arr: arr, I: b.expr(e.I), ElemsVar: b.elemsVar(arr)}
	case *ast.FieldAccess:
		obj := b.expr(e.Obj)
		cls := b.classOf(e.Obj)
		return &FieldTarget{Obj: obj, Field: e.Name, Class: cls, FieldVar: b.fieldVar(cls, e.Name)}
	}
	panic(fmt.Sprintf("ir: invalid assignment target %T", e))
}

func (b *builder) classOf(obj ast.Expr) string {
	if cl := b.info.Receivers[obj]; cl != nil {
		return cl.Name
	}
	return ""
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
		return Int(e.Value)
	case *ast.FloatLit:
		return Float(e.Value)
	case *ast.BoolLit:
		return Bool(e.Value)
	case *ast.StringLit:
		return Str(e.Value)
	case *ast.NullLit:
		return Null()
	case *ast.Ident:
		v, ok := b.lookup(e.Name)
		if !ok {
			panic(fmt.Sprintf("ir: unresolved variable %s at %s", e.Name, e.Pos()))
		}
		if v.Kind == VarField {
			return &FieldExpr{Obj: &ThisExpr{Class: b.curClass}, Field: v.Name, Class: v.Class, FieldVar: v}
		}
		return &VarRef{Var: v}
	case *ast.Unary:
		return &Unary{Op: e.Op, X: b.expr(e.X)}
	case *ast.Binary:
		return &Binary{Op: e.Op, X: b.expr(e.X), Y: b.expr(e.Y)}
	case *ast.Index:
		arr := b.expr(e.Arr)
		return &IndexExpr{Arr: arr, I: b.expr(e.I), ElemsVar: b.elemsVar(arr)}
	case *ast.FieldAccess:
		obj := b.expr(e.Obj)
		cls := b.classOf(e.Obj)
		return &FieldExpr{Obj: obj, Field: e.Name, Class: cls, FieldVar: b.fieldVar(cls, e.Name)}
	case *ast.Call:
		var callee string
		var recv Expr
		var result types.Type = types.VoidType
		// Sibling methods shadow top-level functions (matches the checker).
		if b.curClass != "" {
			if sig, ok := b.info.Funcs[b.curClass+"."+e.Name]; ok {
				callee, result = b.curClass+"."+e.Name, sig.Result
				recv = &ThisExpr{Class: b.curClass}
			}
		}
		if callee == "" {
			if sig, ok := b.info.Funcs[e.Name]; ok {
				callee, result = e.Name, sig.Result
			}
		}
		if callee == "" {
			panic(fmt.Sprintf("ir: unresolved function %s at %s", e.Name, e.Pos()))
		}
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = b.expr(a)
		}
		return &CallExpr{Callee: callee, Recv: recv, Args: args, Result: result}
	case *ast.MethodCall:
		cls := b.classOf(e.Recv)
		callee := cls + "." + e.Name
		sig := b.info.Funcs[callee]
		if sig == nil {
			panic(fmt.Sprintf("ir: unresolved method %s at %s", callee, e.Pos()))
		}
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = b.expr(a)
		}
		return &CallExpr{Callee: callee, Recv: b.expr(e.Recv), Args: args, Result: sig.Result}
	case *ast.NewObject:
		return &NewObjectExpr{Class: e.Name}
	case *ast.NewArray:
		return &NewArrayExpr{Elem: b.resolveType(e.Elem), Size: b.expr(e.Size)}
	case *ast.LenExpr:
		return &LenExpr{Arr: b.expr(e.Arr)}
	case *ast.Cond:
		return &CondExpr{C: b.expr(e.C), T: b.expr(e.T), F: b.expr(e.F)}
	case *ast.Convert:
		return &ConvertExpr{ToFloat: e.To == ast.Float, X: b.expr(e.X)}
	}
	panic(fmt.Sprintf("ir: unknown expression %T", e))
}
