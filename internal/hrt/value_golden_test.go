package hrt

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/lang/types"
	"slicehide/internal/vm"
)

// TestValueBytesGolden pins the bytes a value has once it leaves the
// process. Wire frames, journal records and snapshots all encode values
// through appendValue, so one scalar of each kind fixes all three; the
// program hash is what recovery checks a journal or snapshot against. How
// interp.Value lays its payload out in memory must move none of them.
func TestValueBytesGolden(t *testing.T) {
	for _, c := range []struct {
		v    interp.Value
		wire string
	}{
		{interp.NullV(), "00"},
		{interp.IntV(-2), "01feffffffffffffff"},
		{interp.IntV(1<<40 + 5), "010500000000010000"},
		{interp.FloatV(1.5), "02000000000000f83f"},
		{interp.FloatV(math.Copysign(0, -1)), "020000000000000080"},
		{interp.FloatV(math.Inf(-1)), "02000000000000f0ff"},
		{interp.FloatV(math.NaN()), "02010000000000f87f"},
		{interp.BoolV(true), "0301"},
		{interp.BoolV(false), "0300"},
		{interp.StrV(""), "0400000000"},
		{interp.StrV("hé!"), "040400000068c3a921"},
	} {
		want, _ := hex.DecodeString(c.wire)
		got, err := appendValue(nil, c.v)
		if err != nil {
			t.Fatalf("appendValue(%s %v): %v", c.v.Kind, c.v, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendValue(%s %v) = %x, want %s", c.v.Kind, c.v, got, c.wire)
		}
		if n := valueWireSize(c.v); n != int64(len(want)) {
			t.Errorf("valueWireSize(%s %v) = %d, want %d", c.v.Kind, c.v, n, len(want))
		}
		r := newWireReader(bytes.NewReader(want))
		back, err := r.value()
		if err != nil {
			t.Fatalf("decode %s: %v", c.wire, err)
		}
		if again, _ := appendValue(nil, back); !bytes.Equal(again, want) {
			t.Errorf("%s decodes to a value that encodes as %x", c.wire, again)
		}
	}

	// A registry whose constant pool holds one scalar of each kind, the
	// float a negative zero: its hash hashes each payload only under the
	// kind that defines it.
	v := func(name string, ty types.Type) *ir.Var { return &ir.Var{Name: name, Kind: ir.VarLocal, Type: ty} }
	i, f, b, s := v("i", types.IntType), v("f", types.FloatType), v("b", types.BoolType), v("s", types.StringType)
	set := func(x *ir.Var, c *ir.Const) ir.Stmt {
		return &ir.AssignStmt{Lhs: &ir.VarTarget{Var: x}, Rhs: c}
	}
	comp := vm.Source{
		Name: "pin",
		Vars: []*ir.Var{i, f, b, s},
		Frags: []vm.FragSource{{ID: 0, Body: []ir.Stmt{
			set(i, ir.Int(-7)),
			set(f, ir.Float(math.Copysign(0, -1))),
			set(b, ir.Bool(true)),
			set(s, ir.Str("hé")),
			&ir.ReturnStmt{Value: ir.Float(2.5)},
		}}},
	}
	const wantHash = 0x9462719a12e970d8
	if h := vm.Compile([]vm.Source{comp}, nil).Hash; h != wantHash {
		t.Errorf("program hash = %#x, want %#x", h, uint64(wantHash))
	}
}
