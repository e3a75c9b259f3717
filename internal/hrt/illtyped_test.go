package hrt

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/lang/token"
	"slicehide/internal/vm"
)

// TestIllTypedHiddenCallsStaySafe sends every pair of scalar kinds to
// fragments that, between them, compile to every fragment opcode. A
// client may send a float where a fragment expects an int; the result is
// then unspecified (Value.I is defined only for ints), but the call must
// still end in a value or a runtime error, never a panic.
func TestIllTypedHiddenCallsStaySafe(t *testing.T) {
	a0, a1 := &ir.Var{Name: "$a0"}, &ir.Var{Name: "$a1"}
	h := &ir.Var{Name: "h", Kind: ir.VarLocal}
	x, y := &ir.VarRef{Var: a0}, &ir.VarRef{Var: a1}
	ret := func(e ir.Expr) ir.Stmt { return &ir.ReturnStmt{Value: e} }
	bodies := [][]ir.Stmt{
		{&ir.AssignStmt{Lhs: &ir.VarTarget{Var: h}, Rhs: x}, ret(&ir.VarRef{Var: h})},
		{ret(&ir.Unary{Op: token.MINUS, X: x})},
		{ret(&ir.Unary{Op: token.NOT, X: x})},
		{ret(&ir.ConvertExpr{ToFloat: true, X: x})},
		{ret(&ir.ConvertExpr{X: x})},
		{ret(&ir.CondExpr{C: x, T: y, F: x})},
		{&ir.IfStmt{Cond: x, Then: []ir.Stmt{ret(y)}}, &ir.ReturnStmt{}},
	}
	// The one fragment that fails whatever it is sent: it compiles to
	// OpFail, which raises the tree-walker's compile-time message.
	failFrag := len(bodies)
	bodies = append(bodies, []ir.Stmt{ret(&ir.VarRef{Var: &ir.Var{Name: "unknown", Kind: ir.VarLocal}})})
	const failMsg = "hrt: fragment reads unknown variable unknown"
	for _, op := range []token.Kind{
		token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT, token.EQ, token.NEQ,
		token.LT, token.LEQ, token.GT, token.GEQ, token.AND, token.OR,
	} {
		bodies = append(bodies, []ir.Stmt{ret(&ir.Binary{Op: op, X: x, Y: y})})
	}
	comp := vm.Source{Name: "ops", Vars: []*ir.Var{h}}
	for id, body := range bodies {
		comp.Frags = append(comp.Frags, vm.FragSource{ID: id, Args: []*ir.Var{a0, a1}, Body: body})
	}
	reg := &Registry{Prog: vm.Compile([]vm.Source{comp}, nil)}

	covered := map[vm.Opcode]bool{}
	for _, id := range reg.Prog.Comps["ops"].FragIDs() {
		for _, in := range reg.Prog.Comps["ops"].Frag(id).Code {
			covered[in.Op] = true
		}
	}
	for op := vm.OpStep; op <= vm.OpFail; op++ {
		if !covered[op] {
			t.Errorf("no fragment compiles to opcode %d", op)
		}
	}

	scalars := []interp.Value{
		interp.NullV(), interp.IntV(0), interp.IntV(-1), interp.IntV(math.MinInt64), interp.IntV(1 << 40),
		interp.FloatV(0), interp.FloatV(math.Copysign(0, -1)), interp.FloatV(-2.5), interp.FloatV(math.NaN()),
		interp.FloatV(math.Inf(1)), interp.BoolV(true), interp.BoolV(false), interp.StrV(""), interp.StrV("héllo"),
	}
	s := NewServer(reg)
	inst, err := s.EnterSession(0, "ops", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := range bodies {
		for _, p := range scalars {
			for _, q := range scalars {
				call := fmt.Sprintf("fragment %d (%s %v, %s %v)", id, p.Kind, p, q.Kind, q)
				v, err := callNoPanic(t, s, call, inst, id, p, q)
				var rerr *interp.RuntimeError
				switch {
				case id == failFrag:
					if err == nil || err.Error() != failMsg {
						t.Errorf("%s: err = %v, want %q", call, err, failMsg)
					}
				case err != nil && !errors.As(err, &rerr):
					t.Errorf("%s: %v is not a runtime error", call, err)
				}
				_ = v.String() // every accessor of the result must be safe too
			}
		}
	}
}

func callNoPanic(t *testing.T, s *Server, call string, inst int64, frag int, args ...interp.Value) (v interp.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", call, r)
		}
	}()
	return s.CallSession(0, "ops", inst, frag, args)
}
