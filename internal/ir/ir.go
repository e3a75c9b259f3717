// Package ir defines the intermediate representation that all analyses and
// the splitting transformation operate on. The IR keeps MiniJ's structured
// control flow (the language has no goto), numbers every simple statement
// with a unique ID, and resolves every name to a Var identity so that
// shadowing cannot confuse the dataflow analyses.
package ir

import (
	"fmt"
	"slices"
	"sync"

	"slicehide/internal/lang/token"
	"slicehide/internal/lang/types"
)

// VarKind classifies a Var.
type VarKind int

// Var kinds. Elems is a pseudo-variable standing for "the elements of the
// array held by base variable X"; it gives array reads/writes conservative
// def-use edges without a points-to analysis.
const (
	VarLocal VarKind = iota
	VarParam
	VarGlobal
	VarField
	VarElems
	VarHeap // catch-all pseudo-variable for aggregate state not tied to a base variable
)

var varKindNames = [...]string{"local", "param", "global", "field", "elems", "heap"}

func (k VarKind) String() string {
	if k < 0 || int(k) >= len(varKindNames) {
		return "?"
	}
	return varKindNames[k]
}

// Var is a resolved variable identity. Two references to the same Var are
// guaranteed to denote the same storage (for locals/params) or the same
// conservative storage class (globals, fields, array-element pseudo-vars).
type Var struct {
	Name  string // source name; uniquified for shadowed locals ("x", "x$1")
	Kind  VarKind
	Type  types.Type
	Class string // owning class for VarField
	Base  *Var   // for VarElems: the array-holding variable
}

func (v *Var) String() string {
	switch v.Kind {
	case VarField:
		return v.Class + "." + v.Name
	case VarElems:
		return v.Base.String() + "[*]"
	}
	return v.Name
}

// IsScalar reports whether v holds a hideable scalar value.
func (v *Var) IsScalar() bool { return types.IsScalar(v.Type) }

// ---------------------------------------------------------------------------
// Expressions

// Expr is an IR expression.
type Expr interface {
	exprNode()
}

// ConstKind tags constant values.
type ConstKind int

// Constant kinds.
const (
	ConstInt ConstKind = iota
	ConstFloat
	ConstBool
	ConstString
	ConstNull
)

// Const is a literal value.
type Const struct {
	Kind ConstKind
	I    int64
	F    float64
	B    bool
	S    string
}

// Int returns an integer constant.
func Int(v int64) *Const { return &Const{Kind: ConstInt, I: v} }

// Float returns a float constant.
func Float(v float64) *Const { return &Const{Kind: ConstFloat, F: v} }

// Bool returns a boolean constant.
func Bool(v bool) *Const { return &Const{Kind: ConstBool, B: v} }

// Str returns a string constant.
func Str(v string) *Const { return &Const{Kind: ConstString, S: v} }

// Null returns the null constant.
func Null() *Const { return &Const{Kind: ConstNull} }

// VarRef reads a variable.
type VarRef struct{ Var *Var }

// Unary applies a prefix operator (MINUS or NOT).
type Unary struct {
	Op token.Kind
	X  Expr
}

// Binary applies an infix operator.
type Binary struct {
	Op   token.Kind
	X, Y Expr
}

// IndexExpr reads Arr[I].
type IndexExpr struct {
	Arr Expr
	I   Expr
	// ElemsVar is the pseudo-variable this read uses (base[*] or $heap).
	ElemsVar *Var
}

// FieldExpr reads Obj.Field.
type FieldExpr struct {
	Obj      Expr
	Field    string
	Class    string
	FieldVar *Var // conservative Class.Field variable
}

// CallExpr invokes a function ("f") or method ("C.m", with Recv set).
type CallExpr struct {
	Callee string // qualified name
	Recv   Expr   // nil for top-level functions
	Args   []Expr
	Result types.Type
}

// NewObjectExpr instantiates a class.
type NewObjectExpr struct{ Class string }

// NewArrayExpr allocates an array of Size elements.
type NewArrayExpr struct {
	Elem types.Type
	Size Expr
}

// LenExpr is len(Arr).
type LenExpr struct{ Arr Expr }

// CondExpr is C ? T : F.
type CondExpr struct{ C, T, F Expr }

// ConvertExpr is a numeric conversion: int(X) or float(X).
type ConvertExpr struct {
	ToFloat bool // true = float(X), false = int(X)
	X       Expr
}

// ThisExpr is the implicit receiver inside a method.
type ThisExpr struct{ Class string }

// HCallExpr is a call into the hidden component: H(frag, args...). It only
// appears in open components produced by the splitting transformation.
type HCallExpr struct {
	FragID int
	Args   []Expr
	// Leaks reports whether the returned value is used by the open
	// component (i.e., this call site is an information leak point).
	Leaks bool
	// Component, when non-empty, names the hidden component to call
	// instead of the enclosing function's own (used by the hidden-globals
	// and hidden-fields extensions).
	Component string
	// Obj, when non-nil, evaluates to the object whose per-instance hidden
	// store the call addresses (hidden class fields); its instance id is
	// sent as the activation id.
	Obj Expr
	// NoReply marks statement-position calls whose value is discarded and
	// which leak nothing: a pipelined transport may send them one-way
	// instead of blocking for a round trip. Set by the splitter; only
	// meaningful inside an HCallStmt.
	NoReply bool
}

func (*Const) exprNode()         {}
func (*VarRef) exprNode()        {}
func (*Unary) exprNode()         {}
func (*Binary) exprNode()        {}
func (*IndexExpr) exprNode()     {}
func (*FieldExpr) exprNode()     {}
func (*CallExpr) exprNode()      {}
func (*NewObjectExpr) exprNode() {}
func (*NewArrayExpr) exprNode()  {}
func (*LenExpr) exprNode()       {}
func (*CondExpr) exprNode()      {}
func (*ConvertExpr) exprNode()   {}
func (*ThisExpr) exprNode()      {}
func (*HCallExpr) exprNode()     {}

// ---------------------------------------------------------------------------
// Targets (assignable places)

// Target is the left-hand side of an assignment.
type Target interface {
	targetNode()
}

// VarTarget assigns to a variable.
type VarTarget struct{ Var *Var }

// IndexTarget assigns to Arr[I].
type IndexTarget struct {
	Arr      Expr
	I        Expr
	ElemsVar *Var
}

// FieldTarget assigns to Obj.Field.
type FieldTarget struct {
	Obj      Expr
	Field    string
	Class    string
	FieldVar *Var
}

func (*VarTarget) targetNode()   {}
func (*IndexTarget) targetNode() {}
func (*FieldTarget) targetNode() {}

// ---------------------------------------------------------------------------
// Statements

// Stmt is an IR statement. Every Stmt has a function-unique ID.
type Stmt interface {
	stmtNode()
	ID() int
	Pos() token.Pos
}

type stmtBase struct {
	id  int
	pos token.Pos
}

func (s stmtBase) ID() int        { return s.id }
func (s stmtBase) Pos() token.Pos { return s.pos }

// AssignStmt stores Rhs into Lhs.
type AssignStmt struct {
	stmtBase
	Lhs Target
	Rhs Expr
}

// IfStmt is a structured conditional.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// WhileStmt is a pre-tested loop. Post holds statements executed after the
// body and before re-testing the condition (the `post` clause of a lowered
// for-loop); continue transfers control to Post.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body []Stmt
	Post []Stmt
}

// ReturnStmt exits the function.
type ReturnStmt struct {
	stmtBase
	Value Expr // may be nil
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ stmtBase }

// ContinueStmt jumps to the Post section of the innermost loop.
type ContinueStmt struct{ stmtBase }

// PrintStmt writes to program output.
type PrintStmt struct {
	stmtBase
	Args []Expr
}

// CallStmt evaluates a call for its side effects.
type CallStmt struct {
	stmtBase
	Call *CallExpr
}

// HCallStmt invokes the hidden component and discards the returned value
// ("any"). Produced only by the splitting transformation.
type HCallStmt struct {
	stmtBase
	Call *HCallExpr
}

func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*PrintStmt) stmtNode()    {}
func (*CallStmt) stmtNode()     {}
func (*HCallStmt) stmtNode()    {}

// ---------------------------------------------------------------------------
// Functions, classes, programs

// Func is a function or method in IR form.
//
// A Func is immutable once the pass that builds it returns: Build for the
// functions of a compiled program, the splitting transformation for the
// open functions and fragment shells it emits. No pass edits a function it
// was handed; every pass emits new ones. Analyses cached on the function
// (Facts) rest on this, and so does calling them from several goroutines.
type Func struct {
	Name   string
	Class  string // empty for top-level functions
	Params []*Var
	Locals []*Var // declared locals, in declaration order
	Result types.Type
	Body   []Stmt

	nextStmtID int

	factsOnce sync.Once
	facts     any
}

// Facts returns what build(f) returned the first time Facts was called on
// f; later calls, from any goroutine, return that same value and ignore
// build. The value must depend on f alone and is read-only once returned.
// The slot has one client, slicer.FactsOf (package ir cannot name the
// analyses that fill it), and is dropped with the function.
func (f *Func) Facts(build func(*Func) any) any {
	f.factsOnce.Do(func() { f.facts = build(f) })
	return f.facts
}

// QName returns "Class.Name" for methods and "Name" for functions.
func (f *Func) QName() string {
	if f.Class != "" {
		return f.Class + "." + f.Name
	}
	return f.Name
}

// NumStmtIDs returns an upper bound on statement IDs allocated so far.
func (f *Func) NumStmtIDs() int { return f.nextStmtID }

// NewStmt constructs the statement base for a new statement of f.
func (f *Func) NewStmt(pos token.Pos) stmtBase {
	f.nextStmtID++
	return stmtBase{id: f.nextStmtID - 1, pos: pos}
}

// LookupVar finds a parameter or local by (uniquified) name, or nil.
func (f *Func) LookupVar(name string) *Var {
	for _, vs := range [2][]*Var{f.Params, f.Locals} {
		for _, v := range vs {
			if v.Name == name {
				return v
			}
		}
	}
	return nil
}

// Class describes a class's fields in IR form.
type Class struct {
	Name   string
	Fields []*Var // VarField vars, in declaration order
}

// Field returns the field var named name, or nil.
func (c *Class) Field(name string) *Var {
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global is a module-level variable with an optional initializer.
type Global struct {
	Var  *Var
	Init Expr // may be nil
}

// Program is a whole MiniJ program in IR form.
type Program struct {
	Globals []*Global
	Classes map[string]*Class
	Funcs   map[string]*Func // keyed by qualified name
	Order   []string         // function qualified names in source order
	Heap    *Var             // the $heap pseudo-variable
}

// Func returns the function with the given qualified name, or nil.
func (p *Program) Func(qname string) *Func { return p.Funcs[qname] }

// ---------------------------------------------------------------------------
// Traversal helpers

// WalkStmts visits every statement in the list (recursively, pre-order).
// If fn returns false, children of that statement are not visited.
func WalkStmts(stmts []Stmt, fn func(Stmt) bool) {
	for _, s := range stmts {
		walkStmt(s, fn)
	}
}

func walkStmt(s Stmt, fn func(Stmt) bool) {
	if !fn(s) {
		return
	}
	switch s := s.(type) {
	case *IfStmt:
		WalkStmts(s.Then, fn)
		WalkStmts(s.Else, fn)
	case *WhileStmt:
		WalkStmts(s.Body, fn)
		WalkStmts(s.Post, fn)
	}
}

// AnyStmt reports whether pred holds for a statement of the list or of a
// block nested in one, stopping at the first that it holds for.
func AnyStmt(stmts []Stmt, pred func(Stmt) bool) bool {
	found := false
	WalkStmts(stmts, func(s Stmt) bool {
		found = found || pred(s)
		return !found
	})
	return found
}

// AnyExpr reports whether pred holds for e or one of its subexpressions.
func AnyExpr(e Expr, pred func(Expr) bool) bool {
	found := false
	WalkExpr(e, func(x Expr) { found = found || pred(x) })
	return found
}

// WalkExpr visits e and all subexpressions in pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *Unary:
		WalkExpr(e.X, fn)
	case *Binary:
		WalkExpr(e.X, fn)
		WalkExpr(e.Y, fn)
	case *IndexExpr:
		WalkExpr(e.Arr, fn)
		WalkExpr(e.I, fn)
	case *FieldExpr:
		WalkExpr(e.Obj, fn)
	case *CallExpr:
		WalkExpr(e.Recv, fn)
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	case *NewArrayExpr:
		WalkExpr(e.Size, fn)
	case *LenExpr:
		WalkExpr(e.Arr, fn)
	case *CondExpr:
		WalkExpr(e.C, fn)
		WalkExpr(e.T, fn)
		WalkExpr(e.F, fn)
	case *ConvertExpr:
		WalkExpr(e.X, fn)
	case *HCallExpr:
		WalkExpr(e.Obj, fn)
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	}
}

// StmtExprs calls fn for every top-level expression of s (not descending
// into sub-statements of structured statements).
func StmtExprs(s Stmt, fn func(Expr)) {
	switch s := s.(type) {
	case *AssignStmt:
		switch t := s.Lhs.(type) {
		case *IndexTarget:
			fn(t.Arr)
			fn(t.I)
		case *FieldTarget:
			fn(t.Obj)
		}
		fn(s.Rhs)
	case *IfStmt:
		fn(s.Cond)
	case *WhileStmt:
		fn(s.Cond)
	case *ReturnStmt:
		if s.Value != nil {
			fn(s.Value)
		}
	case *PrintStmt:
		for _, a := range s.Args {
			fn(a)
		}
	case *CallStmt:
		fn(s.Call)
	case *HCallStmt:
		fn(s.Call)
	}
}

// UsedVars returns the variables read by statement s (top-level expressions
// only; for structured statements this is the condition).
func UsedVars(s Stmt) []*Var {
	var out []*Var
	StmtExprs(s, func(e Expr) { out = appendExprVars(out, e) })
	return out
}

// DefinedVar returns the variable defined by s: the assigned variable for a
// VarTarget assignment, the elems/field pseudo-variable for aggregate
// stores, or nil if s defines nothing.
func DefinedVar(s Stmt) *Var {
	a, ok := s.(*AssignStmt)
	if !ok {
		return nil
	}
	switch t := a.Lhs.(type) {
	case *VarTarget:
		return t.Var
	case *IndexTarget:
		return t.ElemsVar
	case *FieldTarget:
		return t.FieldVar
	}
	return nil
}

// ExprVars returns all variables read anywhere inside e.
func ExprVars(e Expr) []*Var { return appendExprVars(nil, e) }

// appendExprVars appends to out, in first-read order, each variable read
// inside e that out does not hold yet. The lists are short, so a scan beats
// a set.
func appendExprVars(out []*Var, e Expr) []*Var {
	WalkExpr(e, func(x Expr) {
		var v *Var
		switch x := x.(type) {
		case *VarRef:
			v = x.Var
		case *IndexExpr:
			v = x.ElemsVar
		case *FieldExpr:
			v = x.FieldVar
		}
		if v != nil && !slices.Contains(out, v) {
			out = append(out, v)
		}
	})
	return out
}

// HasCall reports whether e contains a function/method call or allocation.
func HasCall(e Expr) bool {
	return AnyExpr(e, func(x Expr) bool {
		switch x.(type) {
		case *CallExpr, *NewObjectExpr, *NewArrayExpr:
			return true
		}
		return false
	})
}

// CloneExpr returns a deep copy of e. Var identities are shared (they are
// resolution results, not storage).
func CloneExpr(e Expr) Expr { return MapExpr(e, nil) }

// MapExpr returns a copy of e in which hook may replace any subtree. hook
// sees each node before its children; a non-nil result stands in for that
// node's copy, and MapExpr does not descend into it. A nil hook copies all
// of e. Var identities are shared. Children are mapped left to right,
// except that a call's arguments come before its receiver or object: hooks
// that number what they emit rely on that order.
func MapExpr(e Expr, hook func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if hook != nil {
		if r := hook(e); r != nil {
			return r
		}
	}
	switch e := e.(type) {
	case *Const:
		c := *e
		return &c
	case *VarRef:
		return &VarRef{Var: e.Var}
	case *Unary:
		return &Unary{Op: e.Op, X: MapExpr(e.X, hook)}
	case *Binary:
		return &Binary{Op: e.Op, X: MapExpr(e.X, hook), Y: MapExpr(e.Y, hook)}
	case *IndexExpr:
		return &IndexExpr{Arr: MapExpr(e.Arr, hook), I: MapExpr(e.I, hook), ElemsVar: e.ElemsVar}
	case *FieldExpr:
		return &FieldExpr{Obj: MapExpr(e.Obj, hook), Field: e.Field, Class: e.Class, FieldVar: e.FieldVar}
	case *CallExpr:
		args := mapExprs(e.Args, hook)
		return &CallExpr{Callee: e.Callee, Recv: MapExpr(e.Recv, hook), Args: args, Result: e.Result}
	case *NewObjectExpr:
		return &NewObjectExpr{Class: e.Class}
	case *ThisExpr:
		return &ThisExpr{Class: e.Class}
	case *NewArrayExpr:
		return &NewArrayExpr{Elem: e.Elem, Size: MapExpr(e.Size, hook)}
	case *LenExpr:
		return &LenExpr{Arr: MapExpr(e.Arr, hook)}
	case *CondExpr:
		return &CondExpr{C: MapExpr(e.C, hook), T: MapExpr(e.T, hook), F: MapExpr(e.F, hook)}
	case *ConvertExpr:
		return &ConvertExpr{ToFloat: e.ToFloat, X: MapExpr(e.X, hook)}
	case *HCallExpr:
		args := mapExprs(e.Args, hook)
		return &HCallExpr{FragID: e.FragID, Args: args, Leaks: e.Leaks, Component: e.Component, Obj: MapExpr(e.Obj, hook), NoReply: e.NoReply}
	}
	panic(fmt.Sprintf("ir.MapExpr: unknown expr %T", e))
}

func mapExprs(es []Expr, hook func(Expr) Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = MapExpr(e, hook)
	}
	return out
}

// MapTarget returns a copy of t whose expressions are copied by MapExpr
// under hook.
func MapTarget(t Target, hook func(Expr) Expr) Target {
	switch t := t.(type) {
	case *VarTarget:
		return &VarTarget{Var: t.Var}
	case *IndexTarget:
		return &IndexTarget{Arr: MapExpr(t.Arr, hook), I: MapExpr(t.I, hook), ElemsVar: t.ElemsVar}
	case *FieldTarget:
		return &FieldTarget{Obj: MapExpr(t.Obj, hook), Field: t.Field, Class: t.Class, FieldVar: t.FieldVar}
	}
	panic(fmt.Sprintf("ir.MapTarget: unknown target %T", t))
}
