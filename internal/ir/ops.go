package ir

import (
	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/token"
	"slicehide/internal/lang/types"
)

// BinOp and UnOp are language-neutral operator enums. Expression nodes
// carry token kinds (the IR is built straight from the AST), but consumers
// that must not depend on the lang packages — the fragment bytecode
// compiler in internal/vm — work in terms of these instead, converting at
// their boundary via BinOpOf/UnOpOf.

// BinOp identifies a binary operator.
type BinOp uint8

// Binary operators. BinAnd/BinOr are the short-circuit forms; evaluators
// that implement short-circuiting themselves never dispatch on them.
const (
	BinInvalid BinOp = iota
	BinAdd
	BinSub
	BinMul
	BinDiv
	BinMod
	BinEq
	BinNeq
	BinLt
	BinLeq
	BinGt
	BinGeq
	BinAnd
	BinOr
)

var binOpNames = [...]string{
	BinInvalid: "?", BinAdd: "+", BinSub: "-", BinMul: "*", BinDiv: "/",
	BinMod: "%", BinEq: "==", BinNeq: "!=", BinLt: "<", BinLeq: "<=",
	BinGt: ">", BinGeq: ">=", BinAnd: "&&", BinOr: "||",
}

func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return "?"
}

// BinOpOf converts a token kind to its neutral operator (BinInvalid when
// the kind is not a binary operator).
func BinOpOf(k token.Kind) BinOp {
	switch k {
	case token.PLUS:
		return BinAdd
	case token.MINUS:
		return BinSub
	case token.STAR:
		return BinMul
	case token.SLASH:
		return BinDiv
	case token.PERCENT:
		return BinMod
	case token.EQ:
		return BinEq
	case token.NEQ:
		return BinNeq
	case token.LT:
		return BinLt
	case token.LEQ:
		return BinLeq
	case token.GT:
		return BinGt
	case token.GEQ:
		return BinGeq
	case token.AND:
		return BinAnd
	case token.OR:
		return BinOr
	}
	return BinInvalid
}

// ZeroKind classifies a variable's zero value for consumers that must not
// import the lang packages (the bytecode VM).
type ZeroKind uint8

// Zero-value classes.
const (
	ZeroInt ZeroKind = iota
	ZeroFloat
	ZeroBool
	ZeroString
	ZeroNull
)

// ZeroKindOf classifies v's semantic type.
func ZeroKindOf(v *Var) ZeroKind { return ZeroKindOfType(v.Type) }

// ZeroKindOfType classifies a semantic type.
func ZeroKindOfType(t types.Type) ZeroKind {
	b, ok := t.(*types.Basic)
	if !ok {
		return ZeroNull
	}
	switch b.Kind {
	case ast.Int:
		return ZeroInt
	case ast.Float:
		return ZeroFloat
	case ast.Bool:
		return ZeroBool
	case ast.String:
		return ZeroString
	}
	return ZeroNull
}

// UnOp identifies a unary operator.
type UnOp uint8

// Unary operators.
const (
	UnInvalid UnOp = iota
	UnNeg
	UnNot
)

// UnOpOf converts a token kind to its neutral unary operator.
func UnOpOf(k token.Kind) UnOp {
	switch k {
	case token.MINUS:
		return UnNeg
	case token.NOT:
		return UnNot
	}
	return UnInvalid
}
