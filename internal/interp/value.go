// Package interp is the bottom of the execution stack: MiniJ's runtime
// values, the one definition of its operator semantics (EvalBinOp), the
// runtime error type, and the contracts between a running open program and
// the hidden runtime (HiddenSession, AsyncHiddenSession, Tracer, Options).
//
// Programs run on the bytecode machine of package vm. The tree-walking
// reference executors the differential tests compare it against live in
// package oracle, which only tests import.
package interp

import (
	"fmt"
	"strconv"
	"strings"
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

// Value is a MiniJ runtime value.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	B    bool
	S    string
	Arr  *ArrayVal
	Obj  *ObjectVal
}

// ArrayVal is array storage (shared by reference).
type ArrayVal struct {
	Elems []Value
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
func FloatV(v float64) Value { return Value{Kind: KindFloat, F: v} }

// BoolV returns a bool value.
func BoolV(v bool) Value { return Value{Kind: KindBool, B: v} }

// StrV returns a string value.
func StrV(v string) Value { return Value{Kind: KindString, S: v} }

// NullV returns the null value.
func NullV() Value { return Value{Kind: KindNull} }

// IsTrue reports whether v is the boolean true.
func (v Value) IsTrue() bool { return v.Kind == KindBool && v.B }

// String renders the value the way print does.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eEInfNa") {
			s += ".0"
		}
		return s
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindString:
		return v.S
	case KindArray:
		if v.Arr == nil {
			return "null"
		}
		parts := make([]string, len(v.Arr.Elems))
		for i, e := range v.Arr.Elems {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, " ") + "]"
	case KindObject:
		if v.Obj == nil {
			return "null"
		}
		return fmt.Sprintf("%s#%d", v.Obj.Class, v.Obj.ID)
	}
	return "?"
}

// Equal reports value equality (reference equality for aggregates).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		// null compares equal to null-valued references only.
		if v.Kind == KindNull && (o.Kind == KindArray && o.Arr == nil || o.Kind == KindObject && o.Obj == nil) {
			return true
		}
		if o.Kind == KindNull && (v.Kind == KindArray && v.Arr == nil || v.Kind == KindObject && v.Obj == nil) {
			return true
		}
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindBool:
		return v.B == o.B
	case KindString:
		return v.S == o.S
	case KindArray:
		return v.Arr == o.Arr
	case KindObject:
		return v.Obj == o.Obj
	}
	return false
}
