package interp

import (
	"fmt"

	"slicehide/internal/ir"
)

// EvalBinOp applies a (non-short-circuit) binary operator to two values,
// dispatching on the language-neutral operator enum. This is the single
// definition of MiniJ binary-operator semantics: the bytecode VM's inlined
// fast paths mirror it exactly, and the test oracles call it (the
// differential fuzzers hold them together).
func EvalBinOp(op ir.BinOp, x, y Value) (Value, error) {
	switch op {
	case ir.BinAdd:
		switch x.Kind {
		case KindInt:
			return IntV(x.I + y.I), nil
		case KindFloat:
			return FloatV(x.F() + y.F()), nil
		case KindString:
			return StrV(x.S() + y.S()), nil
		}
	case ir.BinSub:
		if x.Kind == KindFloat {
			return FloatV(x.F() - y.F()), nil
		}
		return IntV(x.I - y.I), nil
	case ir.BinMul:
		if x.Kind == KindFloat {
			return FloatV(x.F() * y.F()), nil
		}
		return IntV(x.I * y.I), nil
	case ir.BinDiv:
		if x.Kind == KindFloat {
			return FloatV(x.F() / y.F()), nil
		}
		if y.I == 0 {
			return NullV(), &RuntimeError{Msg: "division by zero"}
		}
		return IntV(x.I / y.I), nil
	case ir.BinMod:
		if y.I == 0 {
			return NullV(), &RuntimeError{Msg: "division by zero"}
		}
		return IntV(x.I % y.I), nil
	case ir.BinEq:
		return BoolV(x.Equal(y)), nil
	case ir.BinNeq:
		return BoolV(!x.Equal(y)), nil
	case ir.BinLt, ir.BinLeq, ir.BinGt, ir.BinGeq:
		ok, err := Compare(op, &x, &y)
		if err != nil {
			return NullV(), err
		}
		return BoolV(ok), nil
	}
	return NullV(), &RuntimeError{Msg: fmt.Sprintf("invalid binary op %s on %s", op, x.Kind)}
}

// Compare applies an ordered comparison (ir.BinLt, BinLeq, BinGt or
// BinGeq) to two ints, floats or strings; any other left operand is a
// runtime error. It takes pointers so the bytecode machine compares its
// registers in place.
func Compare(op ir.BinOp, x, y *Value) (bool, error) {
	switch x.Kind {
	case KindInt:
		return ordered(op, x.I, y.I), nil
	case KindFloat:
		return ordered(op, x.F(), y.F()), nil
	case KindString:
		return ordered(op, x.S(), y.S()), nil
	}
	return false, &RuntimeError{Msg: "ordered comparison of " + x.Kind.String()}
}

// ordered is comparator-style: <= and >= are the negations of > and <, so
// a NaN ranks equal to every float and x <= NaN holds.
func ordered[T int64 | float64 | string](op ir.BinOp, a, b T) bool {
	switch op {
	case ir.BinLt:
		return a < b
	case ir.BinLeq:
		return !(a > b)
	case ir.BinGt:
		return a > b
	}
	return !(a < b)
}
