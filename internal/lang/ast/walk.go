package ast

// WalkExpr visits e and all its subexpressions in pre-order.
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
	case *Index:
		WalkExpr(e.Arr, fn)
		WalkExpr(e.I, fn)
	case *FieldAccess:
		WalkExpr(e.Obj, fn)
	case *Call:
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	case *MethodCall:
		WalkExpr(e.Recv, fn)
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	case *NewArray:
		WalkExpr(e.Size, fn)
	case *LenExpr:
		WalkExpr(e.Arr, fn)
	case *Cond:
		WalkExpr(e.C, fn)
		WalkExpr(e.T, fn)
		WalkExpr(e.F, fn)
	case *Convert:
		WalkExpr(e.X, fn)
	}
}

// HasCall reports whether the expression contains a function or method call
// or an allocation (entities that can never move into a hidden component).
func HasCall(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		switch x.(type) {
		case *Call, *MethodCall, *NewObject, *NewArray:
			found = true
		}
	})
	return found
}
