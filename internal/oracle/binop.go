package oracle

import (
	"fmt"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
)

// EvalBinOp applies a (non-short-circuit) binary operator to two values,
// dispatching on the language-neutral operator enum. It is the reference
// definition of MiniJ binary-operator semantics: both tree-walkers call it,
// and the differential tests hold the bytecode machine's operators to it.
func EvalBinOp(op ir.BinOp, x, y interp.Value) (interp.Value, error) {
	switch op {
	case ir.BinAdd:
		switch x.Kind {
		case interp.KindInt:
			return interp.IntV(x.I + y.I), nil
		case interp.KindFloat:
			return interp.FloatV(x.F() + y.F()), nil
		case interp.KindString:
			return interp.StrV(x.S() + y.S()), nil
		}
	case ir.BinSub:
		if x.Kind == interp.KindFloat {
			return interp.FloatV(x.F() - y.F()), nil
		}
		return interp.IntV(x.I - y.I), nil
	case ir.BinMul:
		if x.Kind == interp.KindFloat {
			return interp.FloatV(x.F() * y.F()), nil
		}
		return interp.IntV(x.I * y.I), nil
	case ir.BinDiv:
		if x.Kind == interp.KindFloat {
			return interp.FloatV(x.F() / y.F()), nil
		}
		if y.I == 0 {
			return interp.NullV(), &interp.RuntimeError{Msg: "division by zero"}
		}
		return interp.IntV(x.I / y.I), nil
	case ir.BinMod:
		if y.I == 0 {
			return interp.NullV(), &interp.RuntimeError{Msg: "division by zero"}
		}
		return interp.IntV(x.I % y.I), nil
	case ir.BinEq:
		return interp.BoolV(x.Equal(y)), nil
	case ir.BinNeq:
		return interp.BoolV(!x.Equal(y)), nil
	case ir.BinLt, ir.BinLeq, ir.BinGt, ir.BinGeq:
		ok, err := interp.Compare(op, &x, &y)
		if err != nil {
			return interp.NullV(), err
		}
		return interp.BoolV(ok), nil
	}
	return interp.NullV(), &interp.RuntimeError{Msg: fmt.Sprintf("invalid binary op %s on %s", binOpNames[op], x.Kind)}
}

// binOpNames spells each operator as the machine's error messages do.
var binOpNames = [...]string{
	ir.BinInvalid: "?", ir.BinAdd: "+", ir.BinSub: "-", ir.BinMul: "*", ir.BinDiv: "/",
	ir.BinMod: "%", ir.BinEq: "==", ir.BinNeq: "!=", ir.BinLt: "<", ir.BinLeq: "<=",
	ir.BinGt: ">", ir.BinGeq: ">=", ir.BinAnd: "&&", ir.BinOr: "||",
}
