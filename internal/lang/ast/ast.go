// Package ast defines the abstract syntax tree for MiniJ programs.
package ast

import (
	"slicehide/internal/lang/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------------
// Types

// Type is a syntactic type expression.
type Type interface {
	Node
	typeNode()
	String() string
}

// BasicKind enumerates the primitive types.
type BasicKind int

// Primitive type kinds.
const (
	Int BasicKind = iota
	Float
	Bool
	String
	Void
)

var basicKindNames = [...]string{Int: "int", Float: "float", Bool: "bool", String: "string", Void: "void"}

func (k BasicKind) String() string {
	if k < 0 || int(k) >= len(basicKindNames) {
		return "?"
	}
	return basicKindNames[k]
}

// BasicType is a primitive type such as int or bool.
type BasicType struct {
	TPos token.Pos
	Kind BasicKind
}

func (t *BasicType) Pos() token.Pos { return t.TPos }
func (t *BasicType) typeNode()      {}
func (t *BasicType) String() string { return t.Kind.String() }

// ArrayType is an array of Elem values.
type ArrayType struct {
	TPos token.Pos
	Elem Type
}

func (t *ArrayType) Pos() token.Pos { return t.TPos }
func (t *ArrayType) typeNode()      {}
func (t *ArrayType) String() string { return t.Elem.String() + "[]" }

// ClassType names a user-defined class.
type ClassType struct {
	TPos token.Pos
	Name string
}

func (t *ClassType) Pos() token.Pos { return t.TPos }
func (t *ClassType) typeNode()      {}
func (t *ClassType) String() string { return t.Name }

// ---------------------------------------------------------------------------
// Expressions

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	LPos  token.Pos
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	LPos  token.Pos
	Value float64
}

// BoolLit is true or false.
type BoolLit struct {
	LPos  token.Pos
	Value bool
}

// StringLit is a string literal (already unescaped).
type StringLit struct {
	LPos  token.Pos
	Value string
}

// NullLit is the null reference literal.
type NullLit struct {
	LPos token.Pos
}

// Ident is a reference to a named variable, parameter, global, or field.
type Ident struct {
	NPos token.Pos
	Name string
}

// Unary applies a prefix operator (-, !).
type Unary struct {
	OpPos token.Pos
	Op    token.Kind
	X     Expr
}

// Binary applies an infix operator.
type Binary struct {
	Op   token.Kind
	X, Y Expr
}

// Index reads Arr[I].
type Index struct {
	Arr Expr
	I   Expr
}

// FieldAccess reads Obj.Name.
type FieldAccess struct {
	Obj  Expr
	Name string
	NPos token.Pos
}

// Call invokes a top-level function: Name(Args...).
type Call struct {
	NPos token.Pos
	Name string
	Args []Expr
}

// MethodCall invokes Recv.Name(Args...).
type MethodCall struct {
	Recv Expr
	Name string
	NPos token.Pos
	Args []Expr
}

// NewObject instantiates a class: new Name().
type NewObject struct {
	NPos token.Pos
	Name string
}

// NewArray allocates an array: new Elem[Size].
type NewArray struct {
	NPos token.Pos
	Elem Type
	Size Expr
}

// LenExpr is the built-in len(arr).
type LenExpr struct {
	NPos token.Pos
	Arr  Expr
}

// Cond is the ternary conditional C ? T : F.
type Cond struct {
	C, T, F Expr
}

// Convert is a numeric conversion: int(X) or float(X).
type Convert struct {
	NPos token.Pos
	To   BasicKind // Int or Float
	X    Expr
}

func (e *IntLit) Pos() token.Pos      { return e.LPos }
func (e *FloatLit) Pos() token.Pos    { return e.LPos }
func (e *BoolLit) Pos() token.Pos     { return e.LPos }
func (e *StringLit) Pos() token.Pos   { return e.LPos }
func (e *NullLit) Pos() token.Pos     { return e.LPos }
func (e *Ident) Pos() token.Pos       { return e.NPos }
func (e *Unary) Pos() token.Pos       { return e.OpPos }
func (e *Binary) Pos() token.Pos      { return e.X.Pos() }
func (e *Index) Pos() token.Pos       { return e.Arr.Pos() }
func (e *FieldAccess) Pos() token.Pos { return e.Obj.Pos() }
func (e *Call) Pos() token.Pos        { return e.NPos }
func (e *MethodCall) Pos() token.Pos  { return e.Recv.Pos() }
func (e *NewObject) Pos() token.Pos   { return e.NPos }
func (e *NewArray) Pos() token.Pos    { return e.NPos }
func (e *LenExpr) Pos() token.Pos     { return e.NPos }
func (e *Cond) Pos() token.Pos        { return e.C.Pos() }
func (e *Convert) Pos() token.Pos     { return e.NPos }

func (*IntLit) exprNode()      {}
func (*FloatLit) exprNode()    {}
func (*BoolLit) exprNode()     {}
func (*StringLit) exprNode()   {}
func (*NullLit) exprNode()     {}
func (*Ident) exprNode()       {}
func (*Unary) exprNode()       {}
func (*Binary) exprNode()      {}
func (*Index) exprNode()       {}
func (*FieldAccess) exprNode() {}
func (*Call) exprNode()        {}
func (*MethodCall) exprNode()  {}
func (*NewObject) exprNode()   {}
func (*NewArray) exprNode()    {}
func (*LenExpr) exprNode()     {}
func (*Cond) exprNode()        {}
func (*Convert) exprNode()     {}

// ---------------------------------------------------------------------------
// Statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// VarDecl declares a local variable with an optional initializer.
type VarDecl struct {
	NPos token.Pos
	Name string
	Type Type
	Init Expr // may be nil
}

// Assign stores the value of Rhs into Lhs (an Ident, Index, or FieldAccess).
type Assign struct {
	Lhs Expr
	Rhs Expr
}

// If is a conditional with an optional else branch.
type If struct {
	IPos token.Pos
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

// While is a pre-tested loop.
type While struct {
	WPos token.Pos
	Cond Expr
	Body *Block
}

// For is a C-style loop; Init/Post are simple statements, possibly nil.
type For struct {
	FPos token.Pos
	Init Stmt // VarDecl, Assign, or nil
	Cond Expr // may be nil (infinite)
	Post Stmt // Assign or nil
	Body *Block
}

// Return exits the enclosing function with an optional value.
type Return struct {
	RPos  token.Pos
	Value Expr // may be nil
}

// Break exits the innermost loop.
type Break struct{ BPos token.Pos }

// Continue jumps to the next iteration of the innermost loop.
type Continue struct{ CPos token.Pos }

// Print writes its arguments to the program output.
type Print struct {
	PPos token.Pos
	Args []Expr
}

// ExprStmt evaluates an expression (a call) for its side effects.
type ExprStmt struct {
	X Expr
}

// Block is a brace-delimited statement sequence.
type Block struct {
	BPos  token.Pos
	Stmts []Stmt
}

func (s *VarDecl) Pos() token.Pos  { return s.NPos }
func (s *Assign) Pos() token.Pos   { return s.Lhs.Pos() }
func (s *If) Pos() token.Pos       { return s.IPos }
func (s *While) Pos() token.Pos    { return s.WPos }
func (s *For) Pos() token.Pos      { return s.FPos }
func (s *Return) Pos() token.Pos   { return s.RPos }
func (s *Break) Pos() token.Pos    { return s.BPos }
func (s *Continue) Pos() token.Pos { return s.CPos }
func (s *Print) Pos() token.Pos    { return s.PPos }
func (s *ExprStmt) Pos() token.Pos { return s.X.Pos() }
func (s *Block) Pos() token.Pos    { return s.BPos }

func (*VarDecl) stmtNode()  {}
func (*Assign) stmtNode()   {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*For) stmtNode()      {}
func (*Return) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Print) stmtNode()    {}
func (*ExprStmt) stmtNode() {}
func (*Block) stmtNode()    {}

// ---------------------------------------------------------------------------
// Declarations

// Param is a function or method parameter.
type Param struct {
	NPos token.Pos
	Name string
	Type Type
}

// FuncDecl is a top-level function (or a class method when inside a class).
type FuncDecl struct {
	NPos   token.Pos
	Name   string
	Params []Param
	Result Type // never nil; void if omitted
	Body   *Block
}

func (d *FuncDecl) Pos() token.Pos { return d.NPos }

// FieldDecl is a class field.
type FieldDecl struct {
	NPos token.Pos
	Name string
	Type Type
}

func (d *FieldDecl) Pos() token.Pos { return d.NPos }

// ClassDecl groups fields and methods.
type ClassDecl struct {
	NPos    token.Pos
	Name    string
	Fields  []*FieldDecl
	Methods []*FuncDecl
}

func (d *ClassDecl) Pos() token.Pos { return d.NPos }

// GlobalDecl is a module-level variable.
type GlobalDecl struct {
	NPos token.Pos
	Name string
	Type Type
	Init Expr // may be nil
}

func (d *GlobalDecl) Pos() token.Pos { return d.NPos }

// Program is a whole MiniJ compilation unit.
type Program struct {
	Globals []*GlobalDecl
	Classes []*ClassDecl
	Funcs   []*FuncDecl
}
