package ast

// HasCall reports whether the expression contains a function or method call
// or an allocation (entities that can never move into a hidden component).
func HasCall(e Expr) bool {
	switch e := e.(type) {
	case *Call, *MethodCall, *NewObject, *NewArray:
		return true
	case *Unary:
		return HasCall(e.X)
	case *Convert:
		return HasCall(e.X)
	case *Binary:
		return HasCall(e.X) || HasCall(e.Y)
	case *Index:
		return HasCall(e.Arr) || HasCall(e.I)
	case *FieldAccess:
		return HasCall(e.Obj)
	case *LenExpr:
		return HasCall(e.Arr)
	case *Cond:
		return HasCall(e.C) || HasCall(e.T) || HasCall(e.F)
	}
	return false
}
