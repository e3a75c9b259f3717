// Package types implements semantic analysis for MiniJ: symbol resolution
// and type checking. The checker produces an Info structure that IR
// lowering consults; it records only what lowering reads.
package types

import (
	"fmt"

	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/token"
)

// Type is a semantic type.
type Type interface {
	String() string
	Equal(Type) bool
}

// Basic is a primitive type.
type Basic struct{ Kind ast.BasicKind }

func (t *Basic) String() string { return t.Kind.String() }

// Equal reports type identity.
func (t *Basic) Equal(o Type) bool {
	b, ok := o.(*Basic)
	return ok && b.Kind == t.Kind
}

// Array is an array type.
type Array struct{ Elem Type }

func (t *Array) String() string { return t.Elem.String() + "[]" }

// Equal reports type identity.
func (t *Array) Equal(o Type) bool {
	a, ok := o.(*Array)
	return ok && a.Elem.Equal(t.Elem)
}

// Class is a reference to a user-defined class.
type Class struct {
	Name string
	Decl *ast.ClassDecl
	// Methods maps the class's method names to their signatures.
	Methods map[string]*FuncSig
	// fields holds the type of each of Decl.Fields, resolved once.
	fields []Type
}

func (t *Class) String() string { return t.Name }

// Equal reports type identity (classes are nominal).
func (t *Class) Equal(o Type) bool {
	c, ok := o.(*Class)
	return ok && c.Name == t.Name
}

// Null is the type of the null literal; assignable to any class or array.
type Null struct{}

func (t *Null) String() string { return "null" }

// Equal reports type identity.
func (t *Null) Equal(o Type) bool { _, ok := o.(*Null); return ok }

// Canonical basic types.
var (
	IntType    = &Basic{Kind: ast.Int}
	FloatType  = &Basic{Kind: ast.Float}
	BoolType   = &Basic{Kind: ast.Bool}
	StringType = &Basic{Kind: ast.String}
	VoidType   = &Basic{Kind: ast.Void}
	NullType   = &Null{}
)

// IsScalar reports whether t is a hideable scalar (int, float, or bool).
// Only scalar values may be stored in a hidden component (paper §2.2).
func IsScalar(t Type) bool {
	b, ok := t.(*Basic)
	return ok && (b.Kind == ast.Int || b.Kind == ast.Float || b.Kind == ast.Bool)
}

// IsNumeric reports whether t is int or float.
func IsNumeric(t Type) bool {
	b, ok := t.(*Basic)
	return ok && (b.Kind == ast.Int || b.Kind == ast.Float)
}

// IsReference reports whether t is an array or class type (or null).
func IsReference(t Type) bool {
	switch t.(type) {
	case *Array, *Class, *Null:
		return true
	}
	return false
}

// FuncSig is the signature of a function or method.
type FuncSig struct {
	Name   string
	Class  string // empty for top-level functions
	QName  string // "Class.Name" for methods, "Name" for functions
	Params []Type
	Result Type
	Decl   *ast.FuncDecl
}

// Info carries the results of type checking.
type Info struct {
	// Receivers maps the object of every field access and the receiver of
	// every method call (FieldAccess.Obj, MethodCall.Recv) to its class;
	// an operand that is not of class type has no entry.
	Receivers map[ast.Expr]*Class
	// Funcs maps qualified names ("f", "Class.m") to signatures.
	Funcs map[string]*FuncSig
	// Classes maps class names to their semantic types.
	Classes map[string]*Class

	arrays map[Type]*Array // the one Array of each element type
}

// Error is a semantic error; ErrorList is a check's errors.
type (
	Error     = token.Error
	ErrorList = token.ErrorList
)

// Check type-checks prog and returns the collected semantic information.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Receivers: make(map[ast.Expr]*Class),
			Funcs:     make(map[string]*FuncSig),
			Classes:   make(map[string]*Class),
			arrays:    make(map[Type]*Array),
		},
		globals: make(map[string]Type),
	}
	c.collect(prog)
	c.checkBodies(prog)
	if len(c.errors) > 0 {
		return c.info, c.errors
	}
	return c.info, nil
}

type checker struct {
	info    *Info
	errors  ErrorList
	globals map[string]Type

	// Current function context.
	curClass *Class
	curSig   *FuncSig
	// scope holds the parameters, then the locals of every open block in
	// declaration order; block is the index of the innermost block's first
	// local. Closing a block truncates scope back to it.
	scope     []local
	block     int
	loopDepth int
}

// local is a parameter or local variable in scope.
type local struct {
	name string
	typ  Type
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errors = append(c.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// resolveType converts a syntactic type to a semantic one, reporting a
// class that does not exist.
func (c *checker) resolveType(t ast.Type) Type {
	elem := t
	for a, ok := elem.(*ast.ArrayType); ok; a, ok = elem.(*ast.ArrayType) {
		elem = a.Elem
	}
	if ct, ok := elem.(*ast.ClassType); ok && c.info.Classes[ct.Name] == nil {
		c.errorf(ct.Pos(), "undefined class %s", ct.Name)
		if elem == t { // a stand-in, so that no use repeats the error
			return &Class{Name: ct.Name, Decl: &ast.ClassDecl{}}
		}
	}
	return c.info.Resolve(t)
}

var basicTypes = [...]*Basic{ast.Int: IntType, ast.Float: FloatType, ast.Bool: BoolType, ast.String: StringType, ast.Void: VoidType}

// Resolve converts a syntactic type to the semantic one the checker gave
// it, IntType for a class that does not exist. All array types of one
// element type are one *Array. Resolve is not safe for concurrent use.
func (info *Info) Resolve(t ast.Type) Type {
	switch t := t.(type) {
	case *ast.BasicType:
		return basicTypes[t.Kind]
	case *ast.ArrayType:
		return info.arrayOf(info.Resolve(t.Elem))
	case *ast.ClassType:
		if cl, ok := info.Classes[t.Name]; ok {
			return cl
		}
	}
	return IntType
}

// arrayOf returns the array type of elem, made on first use.
func (info *Info) arrayOf(elem Type) *Array {
	a := info.arrays[elem]
	if a == nil {
		a = &Array{Elem: elem}
		info.arrays[elem] = a
	}
	return a
}

func (c *checker) collect(prog *ast.Program) {
	for _, cl := range prog.Classes {
		if _, dup := c.info.Classes[cl.Name]; dup {
			c.errorf(cl.Pos(), "class %s redeclared", cl.Name)
			continue
		}
		c.info.Classes[cl.Name] = &Class{Name: cl.Name, Decl: cl, Methods: make(map[string]*FuncSig, len(cl.Methods))}
	}
	for _, cl := range prog.Classes {
		if ct := c.info.Classes[cl.Name]; ct.Decl == cl {
			for _, fd := range cl.Fields {
				ct.fields = append(ct.fields, c.resolveType(fd.Type))
			}
		}
	}
	for _, g := range prog.Globals {
		if _, dup := c.globals[g.Name]; dup {
			c.errorf(g.Pos(), "global %s redeclared", g.Name)
			continue
		}
		c.globals[g.Name] = c.resolveType(g.Type)
	}
	for _, f := range prog.Funcs {
		c.collectFunc(f, "")
	}
	for _, cl := range prog.Classes {
		for _, m := range cl.Methods {
			c.collectFunc(m, cl.Name)
		}
	}
}

func (c *checker) collectFunc(f *ast.FuncDecl, class string) {
	sig := &FuncSig{Name: f.Name, Class: class, QName: f.Name, Result: c.resolveType(f.Result), Decl: f}
	if class != "" {
		sig.QName = class + "." + f.Name
	}
	sig.Params = make([]Type, len(f.Params))
	for i, p := range f.Params {
		sig.Params[i] = c.resolveType(p.Type)
	}
	if _, dup := c.info.Funcs[sig.QName]; dup {
		c.errorf(f.Pos(), "%s redeclared", sig.QName)
		return
	}
	c.info.Funcs[sig.QName] = sig
	if class != "" {
		c.info.Classes[class].Methods[f.Name] = sig
	}
}

func (c *checker) checkBodies(prog *ast.Program) {
	for _, g := range prog.Globals {
		if g.Init != nil {
			t := c.expr(g.Init)
			gt := c.globals[g.Name]
			if !assignable(gt, t) {
				c.errorf(g.Pos(), "cannot initialize global %s (%s) with %s", g.Name, gt, t)
			}
		}
	}
	for _, f := range prog.Funcs {
		c.checkFunc(f, nil)
	}
	for _, cl := range prog.Classes {
		ct := c.info.Classes[cl.Name]
		seen := map[string]bool{}
		for _, fd := range cl.Fields {
			if seen[fd.Name] {
				c.errorf(fd.Pos(), "field %s redeclared in class %s", fd.Name, cl.Name)
			}
			seen[fd.Name] = true
		}
		for _, m := range cl.Methods {
			c.checkFunc(m, ct)
		}
	}
}

func (c *checker) checkFunc(f *ast.FuncDecl, class *Class) {
	c.curClass = class
	if class != nil {
		c.curSig = class.Methods[f.Name]
	} else {
		c.curSig = c.info.Funcs[f.Name]
	}
	if c.curSig == nil || c.curSig.Decl != f {
		return // a duplicate declaration, already reported: the signature is the first one's
	}
	c.scope, c.block = c.scope[:0], 0
	for i, p := range f.Params {
		if c.declared(p.Name) {
			c.errorf(p.NPos, "parameter %s redeclared", p.Name)
		}
		c.scope = append(c.scope, local{p.Name, c.curSig.Params[i]})
	}
	c.blockStmts(f.Body)
	c.curSig = nil
	c.curClass = nil
}

// openBlock starts a block; closeBlock(openBlock()) ends it, dropping its
// locals.
func (c *checker) openBlock() (outer int) {
	outer, c.block = c.block, len(c.scope)
	return outer
}

func (c *checker) closeBlock(outer int) {
	c.scope, c.block = c.scope[:c.block], outer
}

// declared reports whether the innermost block already declares name.
func (c *checker) declared(name string) bool {
	for _, l := range c.scope[c.block:] {
		if l.name == name {
			return true
		}
	}
	return false
}

func (c *checker) declare(pos token.Pos, name string, t Type) {
	if c.declared(name) {
		c.errorf(pos, "local %s redeclared in this scope", name)
	}
	c.scope = append(c.scope, local{name, t})
}

// lookup resolves a variable name: innermost local or parameter first, then
// a field of the implicit this, then a global. It returns nil if none.
func (c *checker) lookup(name string) Type {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return c.scope[i].typ
		}
	}
	if c.curClass != nil {
		for i, fd := range c.curClass.Decl.Fields {
			if fd.Name == name {
				return c.curClass.fields[i]
			}
		}
	}
	return c.globals[name]
}

func (c *checker) blockStmts(b *ast.Block) {
	outer := c.openBlock()
	for _, s := range b.Stmts {
		c.stmt(s)
	}
	c.closeBlock(outer)
}

func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		t := c.resolveType(s.Type)
		if s.Init != nil {
			it := c.expr(s.Init)
			if !assignable(t, it) {
				c.errorf(s.Pos(), "cannot initialize %s (%s) with %s", s.Name, t, it)
			}
		}
		c.declare(s.NPos, s.Name, t)
	case *ast.Assign:
		lt := c.lvalue(s.Lhs)
		rt := c.expr(s.Rhs)
		if lt != nil && rt != nil && !assignable(lt, rt) {
			c.errorf(s.Pos(), "cannot assign %s to %s", rt, lt)
		}
	case *ast.If:
		ct := c.expr(s.Cond)
		if ct != nil && !ct.Equal(BoolType) {
			c.errorf(s.Cond.Pos(), "if condition must be bool, got %s", ct)
		}
		c.blockStmts(s.Then)
		if s.Else != nil {
			c.blockStmts(s.Else)
		}
	case *ast.While:
		ct := c.expr(s.Cond)
		if ct != nil && !ct.Equal(BoolType) {
			c.errorf(s.Cond.Pos(), "while condition must be bool, got %s", ct)
		}
		c.loopDepth++
		c.blockStmts(s.Body)
		c.loopDepth--
	case *ast.For:
		outer := c.openBlock()
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Cond != nil {
			ct := c.expr(s.Cond)
			if ct != nil && !ct.Equal(BoolType) {
				c.errorf(s.Cond.Pos(), "for condition must be bool, got %s", ct)
			}
		}
		if s.Post != nil {
			c.stmt(s.Post)
		}
		c.loopDepth++
		c.blockStmts(s.Body)
		c.loopDepth--
		c.closeBlock(outer)
	case *ast.Return:
		var got Type = VoidType
		if s.Value != nil {
			got = c.expr(s.Value)
		}
		if c.curSig != nil && got != nil {
			if s.Value == nil {
				if !c.curSig.Result.Equal(VoidType) {
					c.errorf(s.Pos(), "missing return value (want %s)", c.curSig.Result)
				}
			} else if !assignable(c.curSig.Result, got) {
				c.errorf(s.Pos(), "cannot return %s (want %s)", got, c.curSig.Result)
			}
		}
	case *ast.Break, *ast.Continue:
		if c.loopDepth == 0 {
			c.errorf(s.Pos(), "break/continue outside loop")
		}
	case *ast.Print:
		for _, a := range s.Args {
			c.expr(a)
		}
	case *ast.ExprStmt:
		switch s.X.(type) {
		case *ast.Call, *ast.MethodCall:
			c.expr(s.X)
		default:
			c.errorf(s.Pos(), "expression statement must be a call")
			c.expr(s.X)
		}
	case *ast.Block:
		c.blockStmts(s)
	}
}

// lvalue checks an assignable expression and returns its type.
func (c *checker) lvalue(e ast.Expr) Type {
	switch e.(type) {
	case *ast.Ident, *ast.Index, *ast.FieldAccess:
		return c.expr(e)
	}
	c.errorf(e.Pos(), "cannot assign to this expression")
	c.expr(e)
	return nil
}

func (c *checker) expr(e ast.Expr) Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return IntType
	case *ast.FloatLit:
		return FloatType
	case *ast.BoolLit:
		return BoolType
	case *ast.StringLit:
		return StringType
	case *ast.NullLit:
		return NullType
	case *ast.Ident:
		t := c.lookup(e.Name)
		if t == nil {
			c.errorf(e.Pos(), "undefined variable %s", e.Name)
			return IntType
		}
		return t
	case *ast.Unary:
		xt := c.expr(e.X)
		switch e.Op {
		case token.MINUS:
			if !IsNumeric(xt) {
				c.errorf(e.Pos(), "operator - requires numeric operand, got %s", xt)
			}
			return xt
		case token.NOT:
			if !xt.Equal(BoolType) {
				c.errorf(e.Pos(), "operator ! requires bool operand, got %s", xt)
			}
			return BoolType
		}
		return xt
	case *ast.Binary:
		return c.binary(e)
	case *ast.Index:
		at := c.expr(e.Arr)
		it := c.expr(e.I)
		if it != nil && !it.Equal(IntType) {
			c.errorf(e.I.Pos(), "array index must be int, got %s", it)
		}
		if arr, ok := at.(*Array); ok {
			return arr.Elem
		}
		c.errorf(e.Pos(), "indexing non-array type %s", at)
		return IntType
	case *ast.FieldAccess:
		ot := c.expr(e.Obj)
		cl, ok := ot.(*Class)
		if !ok {
			c.errorf(e.Pos(), "field access on non-class type %s", ot)
			return IntType
		}
		c.info.Receivers[e.Obj] = cl
		for i, fd := range cl.Decl.Fields {
			if fd.Name == e.Name {
				return cl.fields[i]
			}
		}
		c.errorf(e.NPos, "class %s has no field %s", cl.Name, e.Name)
		return IntType
	case *ast.Call:
		// A bare call inside a method resolves to a sibling method first
		// (class scope shadows the global function namespace), then to a
		// top-level function.
		if c.curClass != nil {
			if msig, ok := c.curClass.Methods[e.Name]; ok {
				return c.callSig(e.Pos(), msig, e.Args)
			}
		}
		sig, ok := c.info.Funcs[e.Name]
		if !ok {
			c.errorf(e.Pos(), "undefined function %s", e.Name)
			for _, a := range e.Args {
				c.expr(a)
			}
			return IntType
		}
		return c.callSig(e.Pos(), sig, e.Args)
	case *ast.MethodCall:
		rt := c.expr(e.Recv)
		cl, ok := rt.(*Class)
		if !ok {
			c.errorf(e.Pos(), "method call on non-class type %s", rt)
			for _, a := range e.Args {
				c.expr(a)
			}
			return IntType
		}
		c.info.Receivers[e.Recv] = cl
		sig, ok := cl.Methods[e.Name]
		if !ok {
			c.errorf(e.NPos, "class %s has no method %s", cl.Name, e.Name)
			for _, a := range e.Args {
				c.expr(a)
			}
			return IntType
		}
		return c.callSig(e.Pos(), sig, e.Args)
	case *ast.NewObject:
		cl, ok := c.info.Classes[e.Name]
		if !ok {
			c.errorf(e.Pos(), "undefined class %s", e.Name)
			return IntType
		}
		return cl
	case *ast.NewArray:
		st := c.expr(e.Size)
		if st != nil && !st.Equal(IntType) {
			c.errorf(e.Size.Pos(), "array size must be int, got %s", st)
		}
		return c.info.arrayOf(c.resolveType(e.Elem))
	case *ast.LenExpr:
		at := c.expr(e.Arr)
		if _, ok := at.(*Array); !ok {
			if !at.Equal(StringType) {
				c.errorf(e.Pos(), "len requires array or string, got %s", at)
			}
		}
		return IntType
	case *ast.Convert:
		xt := c.expr(e.X)
		if xt != nil && !IsNumeric(xt) {
			c.errorf(e.Pos(), "cannot convert %s to %s", xt, e.To)
		}
		if e.To == ast.Float {
			return FloatType
		}
		return IntType
	case *ast.Cond:
		ct := c.expr(e.C)
		if ct != nil && !ct.Equal(BoolType) {
			c.errorf(e.C.Pos(), "condition must be bool, got %s", ct)
		}
		tt := c.expr(e.T)
		ft := c.expr(e.F)
		if tt != nil && ft != nil && !tt.Equal(ft) {
			c.errorf(e.Pos(), "mismatched conditional arms: %s vs %s", tt, ft)
		}
		return tt
	}
	return IntType
}

func (c *checker) callSig(pos token.Pos, sig *FuncSig, args []ast.Expr) Type {
	if len(args) != len(sig.Params) {
		c.errorf(pos, "%s expects %d arguments, got %d", sig.QName, len(sig.Params), len(args))
	}
	for i, a := range args {
		at := c.expr(a)
		if i < len(sig.Params) && at != nil && !assignable(sig.Params[i], at) {
			c.errorf(a.Pos(), "argument %d of %s: cannot use %s as %s", i+1, sig.QName, at, sig.Params[i])
		}
	}
	return sig.Result
}

func (c *checker) binary(e *ast.Binary) Type {
	xt := c.expr(e.X)
	yt := c.expr(e.Y)
	if xt == nil || yt == nil {
		return IntType
	}
	switch e.Op {
	case token.PLUS:
		if xt.Equal(StringType) && yt.Equal(StringType) {
			return StringType
		}
		fallthrough
	case token.MINUS, token.STAR, token.SLASH:
		if !IsNumeric(xt) || !IsNumeric(yt) {
			c.errorf(e.Pos(), "operator %s requires numeric operands, got %s and %s", e.Op, xt, yt)
			return IntType
		}
		if !xt.Equal(yt) {
			c.errorf(e.Pos(), "mismatched operands for %s: %s and %s", e.Op, xt, yt)
		}
		return xt
	case token.PERCENT:
		if !xt.Equal(IntType) || !yt.Equal(IntType) {
			c.errorf(e.Pos(), "operator %% requires int operands, got %s and %s", xt, yt)
		}
		return IntType
	case token.EQ, token.NEQ:
		if !comparable(xt, yt) {
			c.errorf(e.Pos(), "cannot compare %s and %s", xt, yt)
		}
		return BoolType
	case token.LT, token.LEQ, token.GT, token.GEQ:
		if !IsNumeric(xt) || !IsNumeric(yt) || !xt.Equal(yt) {
			if !(xt.Equal(StringType) && yt.Equal(StringType)) {
				c.errorf(e.Pos(), "operator %s requires matching numeric operands, got %s and %s", e.Op, xt, yt)
			}
		}
		return BoolType
	case token.AND, token.OR:
		if !xt.Equal(BoolType) || !yt.Equal(BoolType) {
			c.errorf(e.Pos(), "operator %s requires bool operands, got %s and %s", e.Op, xt, yt)
		}
		return BoolType
	}
	c.errorf(e.Pos(), "unknown binary operator %s", e.Op)
	return IntType
}

func assignable(dst, src Type) bool {
	if dst.Equal(src) {
		return true
	}
	if _, isNull := src.(*Null); isNull && IsReference(dst) {
		return true
	}
	return false
}

func comparable(a, b Type) bool {
	if a.Equal(b) {
		return true
	}
	if IsReference(a) && IsReference(b) {
		_, an := a.(*Null)
		_, bn := b.(*Null)
		return an || bn || a.Equal(b)
	}
	return false
}
