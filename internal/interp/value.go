// Package interp is the bottom of the execution stack: MiniJ's runtime
// values, its ordered comparison, the runtime error type, and the
// contracts between a running open program and the hidden runtime
// (HiddenSession, AsyncHiddenSession, Tracer, Options).
//
// Programs run on the bytecode machine of package vm. The tree-walkers the
// differential tests compare it against, and EvalBinOp, the reference
// operator semantics, live in package oracle, which only tests import.
package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// ValueKind tags runtime values.
type ValueKind int

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindBool
	KindString
	KindArray
	KindObject
)

func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	}
	return "?"
}

// Value is a MiniJ runtime value: three words, so a register move or an
// array element copies 24 bytes. Kind and I are the only exported fields.
// I is defined only for KindInt; under the other kinds it holds the
// payload's encoding (a bool as 0/1, a float's bits, a string's length),
// which code outside this file reads through F, B and S, never directly.
// ref is a string's data pointer, an *ArrayVal or an *ObjectVal; only the
// constructors set it, and each accessor converts it back only under the
// kind it was built with.
type Value struct {
	Kind ValueKind
	I    int64
	ref  unsafe.Pointer
}

// ArrayVal is array storage (shared by reference). An int array from
// NewArray keeps its elements unboxed in ints, where the collector has
// nothing to scan, until a store of another kind boxes them into Elems.
// Only Len, At and Set read and write an array NewArray made.
type ArrayVal struct {
	Elems []Value
	ints  []int64
}

// NewArray returns an array of n elements, each zero, or the runtime error
// for a negative or too large n.
func NewArray(n int64, zero Value) (*ArrayVal, error) {
	switch {
	case n < 0:
		return nil, &RuntimeError{Msg: fmt.Sprintf("negative array size %d", n)}
	case n > 1<<26:
		return nil, &RuntimeError{Msg: fmt.Sprintf("array size %d too large", n)}
	case zero.Kind == KindInt && zero.I == 0:
		return &ArrayVal{ints: make([]int64, n)}, nil
	}
	a := &ArrayVal{Elems: make([]Value, n)}
	for i := range a.Elems {
		a.Elems[i] = zero
	}
	return a, nil
}

// Len returns the number of elements.
func (a *ArrayVal) Len() int { return len(a.ints) + len(a.Elems) }

// At returns element i, which must be in range.
func (a *ArrayVal) At(i int64) Value {
	if a.ints != nil {
		return IntV(a.ints[i])
	}
	return a.Elems[i]
}

// Set stores v at element i, which must be in range.
func (a *ArrayVal) Set(i int64, v Value) {
	if a.ints != nil && v.Kind == KindInt {
		a.ints[i] = v.I
		return
	}
	for _, x := range a.ints { // a non-int boxes an int array's elements
		a.Elems = append(a.Elems, IntV(x))
	}
	a.ints = nil
	a.Elems[i] = v
}

// ObjectVal is object storage (shared by reference).
type ObjectVal struct {
	Class  string
	Fields map[string]Value
	// ID is a unique instance id, used by class-level splitting to pair
	// open and hidden instances.
	ID int64
}

// Convenience constructors.

// IntV returns an int value.
func IntV(v int64) Value { return Value{Kind: KindInt, I: v} }

// FloatV returns a float value.
func FloatV(v float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(v))} }

// BoolV returns a bool value.
func BoolV(v bool) Value {
	if v {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// StrV returns a string value.
func StrV(v string) Value {
	return Value{Kind: KindString, I: int64(len(v)), ref: unsafe.Pointer(unsafe.StringData(v))}
}

// ArrV returns an array value; ArrV(nil) is the null array.
func ArrV(a *ArrayVal) Value { return Value{Kind: KindArray, ref: unsafe.Pointer(a)} }

// ObjV returns an object value; ObjV(nil) is the null object.
func ObjV(o *ObjectVal) Value { return Value{Kind: KindObject, ref: unsafe.Pointer(o)} }

// NullV returns the null value.
func NullV() Value { return Value{Kind: KindNull} }

// F returns a float value's number, 0 for every other kind.
func (v Value) F() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.I))
}

// B returns a bool value's truth, false for every other kind.
func (v Value) B() bool { return v.Kind == KindBool && v.I != 0 }

// S returns a string value's text, "" for every other kind.
func (v Value) S() string {
	if v.Kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ref), int(v.I))
}

// Arr returns an array value's storage, nil for every other kind.
func (v Value) Arr() *ArrayVal {
	if v.Kind != KindArray {
		return nil
	}
	return (*ArrayVal)(v.ref)
}

// Obj returns an object value's storage, nil for every other kind.
func (v Value) Obj() *ObjectVal {
	if v.Kind != KindObject {
		return nil
	}
	return (*ObjectVal)(v.ref)
}

// String renders the value the way print does.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.F(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eEInfNa") {
			s += ".0"
		}
		return s
	case KindBool:
		return strconv.FormatBool(v.B())
	case KindString:
		return v.S()
	case KindArray:
		arr := v.Arr()
		if arr == nil {
			return "null"
		}
		parts := make([]string, arr.Len())
		for i := range parts {
			parts[i] = arr.At(int64(i)).String()
		}
		return "[" + strings.Join(parts, " ") + "]"
	case KindObject:
		obj := v.Obj()
		if obj == nil {
			return "null"
		}
		return fmt.Sprintf("%s#%d", obj.Class, obj.ID)
	}
	return "?"
}

// Equal reports value equality (reference equality for aggregates). The
// all-int case, which dominates, is decided where Equal inlines.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindInt && o.Kind == KindInt {
		return v.I == o.I
	}
	return v.equal(o)
}

func (v Value) equal(o Value) bool {
	if v.Kind != o.Kind {
		// null compares equal to null-valued references only.
		return (v.Kind == KindNull || o.Kind == KindNull) && v.isNullRef() && o.isNullRef()
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F() == o.F()
	case KindBool:
		return v.B() == o.B()
	case KindString:
		return v.S() == o.S()
	case KindArray, KindObject:
		return v.ref == o.ref
	}
	return false
}

// isNullRef reports whether v is null or a null array or object reference.
func (v Value) isNullRef() bool {
	return v.Kind == KindNull || (v.Kind == KindArray || v.Kind == KindObject) && v.ref == nil
}
