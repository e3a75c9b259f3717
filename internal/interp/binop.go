package interp

import (
	"fmt"
	"strings"

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
			return FloatV(x.F + y.F), nil
		case KindString:
			return StrV(x.S + y.S), nil
		}
	case ir.BinSub:
		if x.Kind == KindFloat {
			return FloatV(x.F - y.F), nil
		}
		return IntV(x.I - y.I), nil
	case ir.BinMul:
		if x.Kind == KindFloat {
			return FloatV(x.F * y.F), nil
		}
		return IntV(x.I * y.I), nil
	case ir.BinDiv:
		if x.Kind == KindFloat {
			return FloatV(x.F / y.F), nil
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
		var cmp int
		switch x.Kind {
		case KindInt:
			cmp = compareInt(x.I, y.I)
		case KindFloat:
			cmp = compareFloat(x.F, y.F)
		case KindString:
			cmp = strings.Compare(x.S, y.S)
		default:
			return NullV(), &RuntimeError{Msg: "ordered comparison of " + x.Kind.String()}
		}
		switch op {
		case ir.BinLt:
			return BoolV(cmp < 0), nil
		case ir.BinLeq:
			return BoolV(cmp <= 0), nil
		case ir.BinGt:
			return BoolV(cmp > 0), nil
		case ir.BinGeq:
			return BoolV(cmp >= 0), nil
		}
	}
	return NullV(), &RuntimeError{Msg: fmt.Sprintf("invalid binary op %s on %s", op, x.Kind)}
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
