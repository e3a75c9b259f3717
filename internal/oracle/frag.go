package oracle

import (
	"errors"
	"fmt"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/lang/token"
)

// Cells is the hidden state a fragment runs against. The caller decides
// which store each variable lives in; the walker only reads and writes
// through it. Argument placeholders never reach it.
type Cells interface {
	Read(v *ir.Var) (interp.Value, error)
	Write(v *ir.Var, val interp.Value) error
}

// maxFragSteps bounds one fragment execution: +1 per statement reached, +1
// per completed loop iteration.
const maxFragSteps = 100_000_000

// RunFragment executes a hidden fragment body by walking it: the reference
// the bytecode VM's Frag.Exec is tested against. argVars bind positionally
// to args and shadow cells. It returns the fragment's returned value, or
// null for a body that falls off its end (the "any" the open side
// discards). Fragments never touch aggregates, make calls, or perform I/O —
// guaranteed by construction in package core.
func RunFragment(argVars []*ir.Var, args []interp.Value, body []ir.Stmt, cells Cells) (interp.Value, error) {
	ex := &fragExec{argVars: argVars, args: args, cells: cells}
	sig, v, err := ex.exec(body)
	if err != nil {
		return interp.NullV(), err
	}
	if sig == sigReturn {
		return v, nil
	}
	return interp.NullV(), nil
}

type fragExec struct {
	argVars []*ir.Var
	args    []interp.Value
	cells   Cells
	steps   int64
}

var errFragSteps = errors.New("hrt: fragment step limit exceeded")

func (ex *fragExec) exec(stmts []ir.Stmt) (signal, interp.Value, error) {
	for _, st := range stmts {
		ex.steps++
		if ex.steps > maxFragSteps {
			return sigNone, interp.Value{}, errFragSteps
		}
		switch st := st.(type) {
		case *ir.AssignStmt:
			v, err := ex.eval(st.Rhs)
			if err != nil {
				return sigNone, interp.Value{}, err
			}
			vt, ok := st.Lhs.(*ir.VarTarget)
			if !ok {
				return sigNone, interp.Value{}, errors.New("hrt: fragment assigns to non-variable target")
			}
			if err := ex.cells.Write(vt.Var, v); err != nil {
				return sigNone, interp.Value{}, err
			}
		case *ir.IfStmt:
			c, err := ex.eval(st.Cond)
			if err != nil {
				return sigNone, interp.Value{}, err
			}
			var sig signal
			var v interp.Value
			if c.B() {
				sig, v, err = ex.exec(st.Then)
			} else {
				sig, v, err = ex.exec(st.Else)
			}
			if err != nil || sig != sigNone {
				return sig, v, err
			}
		case *ir.WhileStmt:
			for {
				c, err := ex.eval(st.Cond)
				if err != nil {
					return sigNone, interp.Value{}, err
				}
				if !c.B() {
					break
				}
				sig, v, err := ex.exec(st.Body)
				if err != nil {
					return sigNone, interp.Value{}, err
				}
				if sig == sigBreak {
					break
				}
				if sig == sigReturn {
					return sig, v, nil
				}
				sig, v, err = ex.exec(st.Post)
				if err != nil {
					return sigNone, interp.Value{}, err
				}
				if sig == sigBreak {
					break
				}
				if sig == sigReturn {
					return sig, v, nil
				}
				ex.steps++
				if ex.steps > maxFragSteps {
					return sigNone, interp.Value{}, errFragSteps
				}
			}
		case *ir.ReturnStmt:
			if st.Value == nil {
				return sigReturn, interp.NullV(), nil
			}
			v, err := ex.eval(st.Value)
			return sigReturn, v, err
		case *ir.BreakStmt:
			return sigBreak, interp.Value{}, nil
		case *ir.ContinueStmt:
			return sigContinue, interp.Value{}, nil
		default:
			return sigNone, interp.Value{}, fmt.Errorf("hrt: fragment contains unsupported statement %T", st)
		}
	}
	return sigNone, interp.Value{}, nil
}

func (ex *fragExec) eval(e ir.Expr) (interp.Value, error) {
	switch e := e.(type) {
	case *ir.Const:
		switch e.Kind {
		case ir.ConstInt:
			return interp.IntV(e.I), nil
		case ir.ConstFloat:
			return interp.FloatV(e.F), nil
		case ir.ConstBool:
			return interp.BoolV(e.B), nil
		case ir.ConstString:
			return interp.StrV(e.S), nil
		case ir.ConstNull:
			return interp.NullV(), nil
		}
	case *ir.VarRef:
		for i, av := range ex.argVars {
			if av == e.Var {
				return ex.args[i], nil
			}
		}
		return ex.cells.Read(e.Var)
	case *ir.Unary:
		x, err := ex.eval(e.X)
		if err != nil {
			return interp.NullV(), err
		}
		switch e.Op {
		case token.MINUS:
			if x.Kind == interp.KindFloat {
				return interp.FloatV(-x.F()), nil
			}
			return interp.IntV(-x.I), nil
		case token.NOT:
			return interp.BoolV(!x.B()), nil
		}
	case *ir.Binary:
		if e.Op == token.AND || e.Op == token.OR {
			x, err := ex.eval(e.X)
			if err != nil {
				return interp.NullV(), err
			}
			if e.Op == token.AND && !x.B() {
				return interp.BoolV(false), nil
			}
			if e.Op == token.OR && x.B() {
				return interp.BoolV(true), nil
			}
			y, err := ex.eval(e.Y)
			if err != nil {
				return interp.NullV(), err
			}
			return interp.BoolV(y.B()), nil
		}
		x, err := ex.eval(e.X)
		if err != nil {
			return interp.NullV(), err
		}
		y, err := ex.eval(e.Y)
		if err != nil {
			return interp.NullV(), err
		}
		return evalBinary(e.Op, x, y)
	case *ir.CondExpr:
		c, err := ex.eval(e.C)
		if err != nil {
			return interp.NullV(), err
		}
		if c.B() {
			return ex.eval(e.T)
		}
		return ex.eval(e.F)
	case *ir.ConvertExpr:
		x, err := ex.eval(e.X)
		if err != nil {
			return interp.NullV(), err
		}
		return convertValue(e.ToFloat, x), nil
	}
	return interp.NullV(), fmt.Errorf("hrt: fragment contains unsupported expression %T", e)
}
