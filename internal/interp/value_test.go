package interp_test

import (
	"math"
	"testing"
	"unsafe"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
)

func TestValueIsThreeWords(t *testing.T) {
	if n := unsafe.Sizeof(interp.Value{}); n != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", n)
	}
}

// TestValueAccessors checks that every accessor returns the payload under
// the kind a value was built with and its type's zero under every other.
func TestValueAccessors(t *testing.T) {
	arr := &interp.ArrayVal{Elems: []interp.Value{interp.IntV(1)}}
	obj := &interp.ObjectVal{Class: "C", ID: 3}
	type payload struct {
		f   float64
		b   bool
		s   string
		arr *interp.ArrayVal
		obj *interp.ObjectVal
	}
	for _, c := range []struct {
		v    interp.Value
		kind interp.ValueKind
		want payload
	}{
		{interp.NullV(), interp.KindNull, payload{}},
		{interp.Value{}, interp.KindNull, payload{}},
		{interp.IntV(-9), interp.KindInt, payload{}},
		{interp.FloatV(2.5), interp.KindFloat, payload{f: 2.5}},
		{interp.BoolV(true), interp.KindBool, payload{b: true}},
		{interp.BoolV(false), interp.KindBool, payload{}},
		{interp.StrV("abc"), interp.KindString, payload{s: "abc"}},
		{interp.ArrV(arr), interp.KindArray, payload{arr: arr}},
		{interp.ArrV(nil), interp.KindArray, payload{}},
		{interp.ObjV(obj), interp.KindObject, payload{obj: obj}},
		{interp.ObjV(nil), interp.KindObject, payload{}},
	} {
		got := payload{c.v.F(), c.v.B(), c.v.S(), c.v.Arr(), c.v.Obj()}
		if c.v.Kind != c.kind || got != c.want {
			t.Errorf("%v: kind %s payload %+v, want kind %s payload %+v", c.v, c.v.Kind, got, c.kind, c.want)
		}
	}
	if v := interp.IntV(-9); v.I != -9 {
		t.Errorf("IntV(-9).I = %d", v.I)
	}
}

func TestFloatVKeepsBits(t *testing.T) {
	for _, x := range []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0123),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
	} {
		if got := math.Float64bits(interp.FloatV(x).F()); got != math.Float64bits(x) {
			t.Errorf("FloatV(%v).F() has bits %#x, want %#x", x, got, math.Float64bits(x))
		}
	}
	if s := interp.FloatV(math.Copysign(0, -1)).String(); s != "-0.0" {
		t.Errorf("FloatV(-0).String() = %q", s)
	}
}

func TestStrV(t *testing.T) {
	if v := interp.StrV(""); v.Kind != interp.KindString || v.S() != "" || v.String() != "" {
		t.Errorf("StrV(\"\") = kind %s %q", v.Kind, v.S())
	}
	s := "hello, world"
	for _, sub := range []string{s, s[7:], s[:5], s[3:3], s[len(s):]} {
		if got := interp.StrV(sub).S(); got != sub {
			t.Errorf("StrV(%q).S() = %q", sub, got)
		}
	}
	if v := interp.StrV(interp.StrV(s[:5]).S() + interp.StrV(s[5:]).S()); v.S() != s {
		t.Errorf("concatenation = %q", v.S())
	}
	if !interp.StrV(s[7:]).Equal(interp.StrV("world")) {
		t.Error("a substring differs from an equal literal")
	}
}

func TestEqualNullReferences(t *testing.T) {
	null, arr, obj := interp.NullV(), interp.ArrV(nil), interp.ObjV(nil)
	for _, p := range [][2]interp.Value{{null, arr}, {arr, null}, {null, obj}, {obj, null}, {arr, arr}, {obj, obj}} {
		if !p[0].Equal(p[1]) {
			t.Errorf("%s %v != %s %v", p[0].Kind, p[0], p[1].Kind, p[1])
		}
	}
	for _, p := range [][2]interp.Value{
		{arr, obj},
		{null, interp.ArrV(&interp.ArrayVal{})},
		{interp.ObjV(&interp.ObjectVal{}), null},
		{interp.ArrV(&interp.ArrayVal{}), interp.ArrV(&interp.ArrayVal{})},
		{null, interp.IntV(0)},
		{interp.IntV(1), interp.BoolV(true)},
	} {
		if p[0].Equal(p[1]) {
			t.Errorf("%s %v == %s %v", p[0].Kind, p[0], p[1].Kind, p[1])
		}
	}
	if !interp.FloatV(0).Equal(interp.FloatV(math.Copysign(0, -1))) || interp.FloatV(math.NaN()).Equal(interp.FloatV(math.NaN())) {
		t.Error("float equality is not IEEE equality")
	}
}

// TestCompareNaN pins the comparator-style rule: <= and >= are the
// negations of > and <, so NaN ranks equal to every float.
func TestCompareNaN(t *testing.T) {
	nan, one := interp.FloatV(math.NaN()), interp.FloatV(1)
	for op, want := range map[ir.BinOp]bool{ir.BinLt: false, ir.BinLeq: true, ir.BinGt: false, ir.BinGeq: true} {
		for _, p := range [][2]interp.Value{{nan, one}, {one, nan}, {nan, nan}} {
			if got, err := interp.Compare(op, &p[0], &p[1]); got != want || err != nil {
				t.Errorf("%v %s %v = %v, %v; want %v", p[0], op, p[1], got, err, want)
			}
		}
	}
	null := interp.NullV()
	if _, err := interp.Compare(ir.BinLt, &null, &null); err == nil {
		t.Error("null < null compared")
	}
}
