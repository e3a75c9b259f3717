package interp

import "slicehide/internal/ir"

// Compare applies an ordered comparison (ir.BinLt, BinLeq, BinGt or
// BinGeq) to two ints, floats or strings; any other left operand is a
// runtime error. It takes pointers so the bytecode machine compares its
// registers in place.
func Compare(op ir.BinOp, x, y *Value) (bool, error) {
	switch x.Kind {
	case KindInt:
		return Ordered(op, x.I, y.I), nil
	case KindFloat:
		return Ordered(op, x.F(), y.F()), nil
	case KindString:
		return Ordered(op, x.S(), y.S()), nil
	}
	return false, &RuntimeError{Msg: "ordered comparison of " + x.Kind.String()}
}

// Ordered is Compare for two operands of one kind. It is comparator-style:
// <= and >= are the negations of > and <, so a NaN ranks equal to every
// float and x <= NaN holds.
func Ordered[T int64 | float64 | string](op ir.BinOp, a, b T) bool {
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
